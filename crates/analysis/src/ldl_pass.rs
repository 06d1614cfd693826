//! Static analysis of LDL rule programs.
//!
//! The pass pipeline, per program:
//!
//! 1. **Safety** (range restriction, IS002/IS003): every head variable and
//!    every variable in a negated or builtin literal must be bound by a
//!    positive body literal.
//! 2. **Stratified negation** (IS010): the predicate dependency graph must
//!    have no cycle through a negative edge; violations report the precise
//!    cycle, not just one involved predicate.
//! 3. **Dependency hygiene**: undefined predicates (IS011, when the EDB
//!    schema is known), unreachable rules (IS012, when the root predicates
//!    are known), arity consistency (IS013), duplicate rules (IS015).
//! 4. **Builtin consistency** (IS014): comparisons that can never hold —
//!    statically false constant tests, or a variable compared against
//!    constants of incomparable kinds.
//! 5. **Agent locality** (IS016, when the agent-keyed predicates are
//!    known): every rule derives facts about one agent from that agent's
//!    own facts and agent-free ones.

use crate::diag::{Code, Diagnostic, Report, Span};
use infosleuth_ldl::{parse_rules_spanned, Const, Literal, Rule, RuleError, Term};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What the analyzer may assume about the world around a rule program.
/// Every field is optional: without an EDB schema, undefined-predicate
/// and EDB-arity checks are skipped (any predicate may be a fact); without
/// roots, reachability is not checked (any rule may be queried directly);
/// without agent-keyed predicates, locality is not checked.
#[derive(Debug, Clone, Default)]
pub struct LdlEnv {
    /// Known extensional (fact) predicates, with their arities.
    pub edb: Option<BTreeMap<String, usize>>,
    /// Predicates queried from outside the program. Rules not (transitively)
    /// feeding a root are dead code.
    pub roots: Option<BTreeSet<String>>,
    /// Known predicates whose first argument names an agent. The other
    /// known predicates are agent-free, and only these may head a rule.
    pub agent_keyed: Option<BTreeSet<String>>,
}

impl LdlEnv {
    /// No assumptions: only safety, stratification, internal arity
    /// consistency, duplicates, and builtin checks run.
    pub fn permissive() -> Self {
        LdlEnv::default()
    }

    pub fn with_edb<I, S>(mut self, schema: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        self.edb = Some(schema.into_iter().map(|(p, a)| (p.into(), a)).collect());
        self
    }

    pub fn with_roots<I, S>(mut self, roots: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.roots = Some(roots.into_iter().map(Into::into).collect());
        self
    }

    pub fn with_agent_keyed<I, S>(mut self, predicates: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.agent_keyed = Some(predicates.into_iter().map(Into::into).collect());
        self
    }
}

/// Analyzes LDL source text. Syntax errors abort with a single IS001 (there
/// is nothing meaningful to analyze past a parse failure); otherwise all
/// semantic checks run over every rule and the report carries source spans.
pub fn analyze_ldl_source(origin: &str, src: &str, env: &LdlEnv) -> Report {
    match parse_rules_spanned(src) {
        Err(e) => {
            let mut report = Report::new(origin);
            let at = e.position.min(src.len());
            report.push(Diagnostic::error(Code::SyntaxError, e.message).with_span(Span::point(at)));
            report
        }
        Ok(spanned) => {
            let rules: Vec<(Rule, Option<Span>)> =
                spanned.into_iter().map(|s| (s.rule, Some(Span::new(s.start, s.end)))).collect();
            analyze_rules(origin, &rules, env)
        }
    }
}

/// Analyzes an already-parsed rule set. Spans are optional — programs
/// assembled programmatically (the broker's compiled rule base) have none.
pub fn analyze_rules(origin: &str, rules: &[(Rule, Option<Span>)], env: &LdlEnv) -> Report {
    let mut report = Report::new(origin);
    check_safety(rules, &mut report);
    check_duplicates(rules, &mut report);
    check_arities(rules, env, &mut report);
    check_undefined(rules, env, &mut report);
    check_stratification(rules, &mut report);
    check_reachability(rules, env, &mut report);
    check_builtins(rules, &mut report);
    check_locality(rules, env, &mut report);
    report.sorted()
}

fn push_at(report: &mut Report, d: Diagnostic, span: Option<Span>) {
    match span {
        Some(s) => report.push(d.with_span(s)),
        None => report.push(d),
    }
}

fn check_safety(rules: &[(Rule, Option<Span>)], report: &mut Report) {
    for (rule, span) in rules {
        match rule.check_safety() {
            Ok(()) => {}
            Err(RuleError::UnsafeHeadVar { var, .. }) => push_at(
                report,
                Diagnostic::new(
                    Code::UnsafeHeadVar,
                    format!(
                        "head variable {var} of '{rule}' is not bound by a positive body literal"
                    ),
                ),
                *span,
            ),
            Err(RuleError::UnboundVar { var, .. }) => push_at(
                report,
                Diagnostic::new(
                    Code::UnboundVar,
                    format!(
                        "variable {var} in a negated or builtin literal of '{rule}' is not \
                         bound by a positive body literal"
                    ),
                ),
                *span,
            ),
        }
    }
}

fn check_duplicates(rules: &[(Rule, Option<Span>)], report: &mut Report) {
    for (i, (rule, span)) in rules.iter().enumerate() {
        if rules[..i].iter().any(|(earlier, _)| earlier == rule) {
            push_at(
                report,
                Diagnostic::new(Code::DuplicateRule, format!("duplicate rule '{rule}'")),
                *span,
            );
        }
    }
}

/// Atoms of a rule (head + positive/negative body atoms) as
/// `(pred, arity, is_head)`.
fn rule_atoms(rule: &Rule) -> Vec<(&str, usize, bool)> {
    let mut out = vec![(rule.head.pred.as_str(), rule.head.args.len(), true)];
    for lit in &rule.body {
        if let Literal::Pos(a) | Literal::Neg(a) = lit {
            out.push((a.pred.as_str(), a.args.len(), false));
        }
    }
    out
}

fn check_arities(rules: &[(Rule, Option<Span>)], env: &LdlEnv, report: &mut Report) {
    // First use fixes the arity; the EDB schema (when present) counts as
    // the first use for its predicates.
    let mut seen: BTreeMap<String, (usize, String)> = BTreeMap::new();
    if let Some(edb) = &env.edb {
        for (pred, arity) in edb {
            seen.insert(pred.clone(), (*arity, "the EDB schema".to_string()));
        }
    }
    for (rule, span) in rules {
        for (pred, arity, _) in rule_atoms(rule) {
            match seen.get(pred) {
                Some((expected, first)) if *expected != arity => {
                    push_at(
                        report,
                        Diagnostic::new(
                            Code::ArityMismatch,
                            format!(
                                "predicate '{pred}' used with arity {arity} but {first} \
                                 uses arity {expected}"
                            ),
                        ),
                        *span,
                    );
                }
                Some(_) => {}
                None => {
                    seen.insert(pred.to_string(), (arity, format!("'{rule}'")));
                }
            }
        }
    }
}

fn check_undefined(rules: &[(Rule, Option<Span>)], env: &LdlEnv, report: &mut Report) {
    let Some(edb) = &env.edb else { return };
    let defined: BTreeSet<&str> = rules
        .iter()
        .map(|(r, _)| r.head.pred.as_str())
        .chain(edb.keys().map(String::as_str))
        .collect();
    for (rule, span) in rules {
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                if !defined.contains(a.pred.as_str()) {
                    push_at(
                        report,
                        Diagnostic::new(
                            Code::UndefinedPredicate,
                            format!(
                                "predicate '{}' in '{rule}' is neither defined by a rule \
                                 nor part of the EDB schema",
                                a.pred
                            ),
                        ),
                        *span,
                    );
                }
            }
        }
    }
}

/// Tarjan's strongly-connected components over the predicate dependency
/// graph (edge: head → body predicate), iterative to avoid recursion-depth
/// limits on adversarial inputs.
fn sccs(nodes: &[&str], adj: &BTreeMap<&str, Vec<&str>>) -> BTreeMap<String, usize> {
    struct Frame<'a> {
        node: &'a str,
        next_child: usize,
    }
    let mut index_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut low: BTreeMap<&str, usize> = BTreeMap::new();
    let mut on_stack: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut comp: BTreeMap<String, usize> = BTreeMap::new();
    let mut next_index = 0;
    let mut next_comp = 0;
    for &start in nodes {
        if index_of.contains_key(start) {
            continue;
        }
        let mut frames = vec![Frame { node: start, next_child: 0 }];
        index_of.insert(start, next_index);
        low.insert(start, next_index);
        next_index += 1;
        stack.push(start);
        on_stack.insert(start);
        while let Some(frame) = frames.last_mut() {
            let node = frame.node;
            let children = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if frame.next_child < children.len() {
                let child = children[frame.next_child];
                frame.next_child += 1;
                if !index_of.contains_key(child) {
                    index_of.insert(child, next_index);
                    low.insert(child, next_index);
                    next_index += 1;
                    stack.push(child);
                    on_stack.insert(child);
                    frames.push(Frame { node: child, next_child: 0 });
                } else if on_stack.contains(child) {
                    let l = low[node].min(index_of[child]);
                    low.insert(node, l);
                }
            } else {
                if low[node] == index_of[node] {
                    while let Some(top) = stack.pop() {
                        on_stack.remove(top);
                        comp.insert(top.to_string(), next_comp);
                        if top == node {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                let done = frames.pop().expect("frame present");
                if let Some(parent) = frames.last() {
                    let l = low[parent.node].min(low[done.node]);
                    low.insert(parent.node, l);
                }
            }
        }
    }
    comp
}

fn check_stratification(rules: &[(Rule, Option<Span>)], report: &mut Report) {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    // (head, dep, rule index) for every negative edge.
    let mut neg_edges: Vec<(&str, &str, usize)> = Vec::new();
    for (i, (rule, _)) in rules.iter().enumerate() {
        let head = rule.head.pred.as_str();
        nodes.insert(head);
        for (dep, negated) in rule.dependencies() {
            nodes.insert(dep);
            adj.entry(head).or_default().push(dep);
            if negated {
                neg_edges.push((head, dep, i));
            }
        }
    }
    let node_list: Vec<&str> = nodes.iter().copied().collect();
    let comp = sccs(&node_list, &adj);
    let mut reported: BTreeSet<(&str, &str)> = BTreeSet::new();
    for (head, dep, rule_idx) in neg_edges {
        if comp[head] != comp[dep] || !reported.insert((head, dep)) {
            continue;
        }
        let cycle = cycle_through(head, dep, &adj, &comp);
        let span = rules[rule_idx].1;
        push_at(
            report,
            Diagnostic::new(
                Code::RecursionThroughNegation,
                format!("recursion through negation: {cycle}"),
            )
            .with_note(format!("the negative dependency is introduced by '{}'", rules[rule_idx].0)),
            span,
        );
    }
}

/// Renders the cycle realized by the negative edge `head -> not dep` plus a
/// shortest positive-graph path from `dep` back to `head` inside the SCC.
fn cycle_through(
    head: &str,
    dep: &str,
    adj: &BTreeMap<&str, Vec<&str>>,
    comp: &BTreeMap<String, usize>,
) -> String {
    let target_comp = comp[head];
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([dep]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([dep]);
    while let Some(node) = queue.pop_front() {
        if node == head {
            break;
        }
        for &next in adj.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            if comp.get(next) == Some(&target_comp) && seen.insert(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    // Walk back head → … → dep, then print forward.
    let mut path = vec![head];
    let mut cur = head;
    while cur != dep {
        match prev.get(cur) {
            Some(&p) => {
                path.push(p);
                cur = p;
            }
            None => break, // self-loop (head == dep) or disconnected: path is just [head]
        }
    }
    path.reverse(); // dep → … → head
    let mut out = format!("'{head}' -> not '{dep}'");
    for step in path.iter().skip(1) {
        out.push_str(&format!(" -> '{step}'"));
    }
    if path.len() <= 1 && head != dep {
        out.push_str(&format!(" -> '{head}'"));
    }
    out
}

fn check_reachability(rules: &[(Rule, Option<Span>)], env: &LdlEnv, report: &mut Report) {
    let Some(roots) = &env.roots else { return };
    // A predicate is *needed* if it is a root or occurs in the body of a
    // rule whose head is needed.
    let mut needed: BTreeSet<&str> = roots.iter().map(String::as_str).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (rule, _) in rules {
            if !needed.contains(rule.head.pred.as_str()) {
                continue;
            }
            for (dep, _) in rule.dependencies() {
                changed |= needed.insert(dep);
            }
        }
    }
    for (rule, span) in rules {
        if !needed.contains(rule.head.pred.as_str()) {
            push_at(
                report,
                Diagnostic::new(
                    Code::UnreachableRule,
                    format!(
                        "rule '{rule}' is unreachable: '{}' does not feed any root predicate",
                        rule.head.pred
                    ),
                ),
                *span,
            );
        }
    }
}

/// IS016: a rule is *agent-local* when its head's first argument is a
/// variable and that variable is the first argument of every agent-keyed
/// atom of its body, negated ones included. Agent-keyed are the
/// environment's agent-keyed predicates and whatever the rules themselves
/// define; a rule may not define another known predicate (those are
/// agent-free, shared by every agent). Under local rules the facts a
/// model holds about one agent follow from that agent's facts and the
/// agent-free ones alone, so they can be derived from those.
fn check_locality(rules: &[(Rule, Option<Span>)], env: &LdlEnv, report: &mut Report) {
    let Some(agent_keyed) = &env.agent_keyed else { return };
    let known = |pred: &str| env.edb.as_ref().is_some_and(|edb| edb.contains_key(pred));
    let keyed =
        |pred: &str| agent_keyed.contains(pred) || rules.iter().any(|(r, _)| r.head.pred == pred);
    for (rule, span) in rules {
        let head = &rule.head;
        let why = if known(&head.pred) && !agent_keyed.contains(&head.pred) {
            Some(format!("it defines '{}', which no agent keys", head.pred))
        } else if let Some(Term::Var(agent)) = head.args.first() {
            rule.body
                .iter()
                .filter_map(|lit| match lit {
                    Literal::Pos(a) | Literal::Neg(a) => Some(a),
                    _ => None,
                })
                .find(|a| keyed(&a.pred) && a.args.first() != Some(&Term::Var(agent.clone())))
                .map(|a| format!("'{a}' is not about the head's agent {agent}"))
        } else {
            Some("its head is keyed by no agent variable".to_string())
        };
        if let Some(why) = why {
            push_at(
                report,
                Diagnostic::new(
                    Code::NonLocalRule,
                    format!("rule '{rule}' is not agent-local: {why}"),
                )
                .with_note(
                    "a derived rule may read only the facts of the agent it derives for, \
                         and the agent-free hierarchy facts",
                ),
                *span,
            );
        }
    }
}

/// The comparability class of a constant: symbols, strings, and numbers
/// are three mutually incomparable families (`Const::compare` bridges
/// `Int` and `Float` but nothing else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Sym,
    Str,
    Num,
}

fn kind_of(c: &Const) -> Kind {
    match c {
        Const::Sym(_) => Kind::Sym,
        Const::Str(_) => Kind::Str,
        Const::Int(_) | Const::FloatBits(_) => Kind::Num,
    }
}

fn kind_name(k: Kind) -> &'static str {
    match k {
        Kind::Sym => "symbol",
        Kind::Str => "string",
        Kind::Num => "number",
    }
}

fn check_builtins(rules: &[(Rule, Option<Span>)], report: &mut Report) {
    for (rule, span) in rules {
        // Constant kinds each variable is tested against with an
        // order/equality operator (`!=` succeeds across kinds, so it never
        // constrains the kind).
        let mut var_kinds: BTreeMap<&str, BTreeSet<Kind>> = BTreeMap::new();
        for lit in &rule.body {
            if let Literal::Cmp { op, lhs, rhs } = lit {
                match (lhs, rhs) {
                    (Term::Const(a), Term::Const(b)) if !op.eval(a, b) => {
                        push_at(
                            report,
                            Diagnostic::new(
                                Code::ImpossibleComparison,
                                format!(
                                    "comparison '{a} {op} {b}' in '{rule}' is always \
                                     false; the rule can never fire"
                                ),
                            ),
                            *span,
                        );
                    }
                    (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v))
                        if *op != infosleuth_ldl::CmpOp::Ne =>
                    {
                        var_kinds.entry(v.as_str()).or_default().insert(kind_of(c));
                    }
                    _ => {}
                }
            }
        }
        for (var, kinds) in var_kinds {
            if kinds.len() > 1 {
                let names: Vec<&str> = kinds.iter().map(|&k| kind_name(k)).collect();
                push_at(
                    report,
                    Diagnostic::new(
                        Code::ImpossibleComparison,
                        format!(
                            "variable {var} in '{rule}' is compared against incomparable \
                             constant kinds ({}); no value satisfies all tests",
                            names.join(", ")
                        ),
                    ),
                    *span,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn codes(src: &str, env: &LdlEnv) -> Vec<Code> {
        analyze_ldl_source("test.ldl", src, env).codes()
    }

    #[test]
    fn clean_program_is_clean() {
        let src = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).";
        let env = LdlEnv::permissive().with_edb([("edge", 2)]).with_roots(["path"]);
        let r = analyze_ldl_source("t", src, &env);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn syntax_error_is_is001_with_position() {
        let r = analyze_ldl_source("t", "p(X :- q(X).", &LdlEnv::permissive());
        assert_eq!(r.codes(), vec![Code::SyntaxError]);
        assert!(r.diagnostics[0].span.is_some());
    }

    #[test]
    fn unsafe_head_var_is_is002() {
        assert_eq!(codes("p(X, Y) :- q(X).", &LdlEnv::permissive()), vec![Code::UnsafeHeadVar]);
    }

    #[test]
    fn unbound_negation_var_is_is003() {
        assert_eq!(codes("p(X) :- q(X), not r(Y).", &LdlEnv::permissive()), vec![Code::UnboundVar]);
    }

    #[test]
    fn negation_cycle_is_is010_with_cycle_text() {
        let r = analyze_ldl_source(
            "t",
            "a(X) :- c(X), not b(X). b(X) :- c(X), not a(X).",
            &LdlEnv::permissive(),
        );
        assert_eq!(r.codes(), vec![Code::RecursionThroughNegation; 2]);
        assert!(r.diagnostics[0].message.contains("-> not"), "{}", r.diagnostics[0].message);
    }

    #[test]
    fn self_negation_reports_tight_cycle() {
        let r = analyze_ldl_source("t", "p(X) :- q(X), not p(X).", &LdlEnv::permissive());
        assert_eq!(r.codes(), vec![Code::RecursionThroughNegation]);
        assert!(
            r.diagnostics[0].message.contains("'p' -> not 'p'"),
            "{}",
            r.diagnostics[0].message
        );
    }

    #[test]
    fn undefined_predicate_needs_schema() {
        let src = "p(X) :- mystery(X).";
        assert!(codes(src, &LdlEnv::permissive()).is_empty());
        assert_eq!(
            codes(src, &LdlEnv::permissive().with_edb([("base", 1)])),
            vec![Code::UndefinedPredicate]
        );
    }

    #[test]
    fn arity_mismatch_is_is013() {
        assert_eq!(
            codes("p(X) :- q(X). r(X) :- q(X, X).", &LdlEnv::permissive()),
            vec![Code::ArityMismatch]
        );
        // EDB schema arity is authoritative.
        assert_eq!(
            codes("p(X) :- base(X, X).", &LdlEnv::permissive().with_edb([("base", 1)])),
            vec![Code::ArityMismatch]
        );
    }

    #[test]
    fn unreachable_rule_is_is012_warning() {
        let r = analyze_ldl_source(
            "t",
            "goal(X) :- base(X). orphan(X) :- base(X).",
            &LdlEnv::permissive().with_roots(["goal"]),
        );
        assert_eq!(r.codes(), vec![Code::UnreachableRule]);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
        assert!(r.diagnostics[0].message.contains("orphan"));
    }

    #[test]
    fn helpers_of_roots_are_reachable() {
        let src = "goal(X) :- helper(X). helper(X) :- base(X).";
        assert!(codes(src, &LdlEnv::permissive().with_roots(["goal"])).is_empty());
    }

    #[test]
    fn impossible_comparisons_are_is014() {
        // Statically false constant comparison.
        assert_eq!(
            codes("p(X) :- q(X), 3 < 2.", &LdlEnv::permissive()),
            vec![Code::ImpossibleComparison]
        );
        // Incomparable kinds on one variable.
        assert_eq!(
            codes("p(X) :- q(X), X < 5, X = \"a\".", &LdlEnv::permissive()),
            vec![Code::ImpossibleComparison]
        );
        // `!=` across kinds is fine.
        assert!(codes("p(X) :- q(X), X < 5, X != \"a\".", &LdlEnv::permissive()).is_empty());
    }

    #[test]
    fn duplicate_rule_is_is015_warning() {
        let r = analyze_ldl_source("t", "p(X) :- q(X). p(X) :- q(X).", &LdlEnv::permissive());
        assert_eq!(r.codes(), vec![Code::DuplicateRule]);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    }

    #[test]
    fn non_local_rules_are_is016() {
        let env = LdlEnv::permissive()
            .with_edb([("agent", 2), ("cap", 2), ("conv", 2), ("isa_cap", 2)])
            .with_agent_keyed(["agent", "cap", "conv"]);
        let local = [
            "cap(A, polling) :- cap(A, subscription).",
            "cap(A, x) :- agent(A, resource), not conv(A, subscribe).",
            "cap(A, x) :- cap(A, C), isa_cap(C, y).",
            "helper(A) :- cap(A, x). cap(A, y) :- helper(A).",
        ];
        for src in local {
            assert!(codes(src, &env).is_empty(), "{src}");
            assert!(codes(src, &LdlEnv::permissive()).is_empty(), "{src}");
        }
        let non_local = [
            // Another agent's facts, positive or negated.
            "cap(A, popular) :- agent(A, resource), cap(B, subscription).",
            "cap(A, x) :- agent(A, resource), agent(B, resource), not conv(B, subscribe).",
            // No agent variable in the head.
            "cap(ra1, x) :- agent(ra1, resource).",
            // An agent-free head.
            "isa_cap(X, Y) :- cap(X, Y).",
            // Through a helper the rules define.
            "helper(B) :- cap(B, x). cap(A, y) :- agent(A, resource), helper(B).",
        ];
        for src in non_local {
            assert_eq!(codes(src, &env), vec![Code::NonLocalRule], "{src}");
            assert!(codes(src, &LdlEnv::permissive()).is_empty(), "{src}");
        }
    }

    #[test]
    fn spans_point_at_the_offending_rule() {
        let src = "good(X) :- base(X).\nbad(X, Y) :- base(X).";
        let r = analyze_ldl_source("t", src, &LdlEnv::permissive());
        assert_eq!(r.codes(), vec![Code::UnsafeHeadVar]);
        let span = r.diagnostics[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "bad(X, Y) :- base(X).");
    }
}
