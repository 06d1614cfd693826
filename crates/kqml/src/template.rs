//! KQML template unification — *syntactic* brokering.
//!
//! KQML "specifies agent advertisements as templates for KQML messages
//! representing requests for services. Requesting agents must send request
//! messages that effectively 'fill in' these templates in order for the
//! request to match the advertisement." A template is an s-expression in
//! which atoms beginning with `?` are variables; matching binds variables
//! consistently.

use crate::{Message, SExpr};
use std::collections::BTreeMap;

/// Variable bindings produced by a successful unification: variable name
/// (with the `?`) → matched s-expression.
pub type Bindings = BTreeMap<String, SExpr>;

/// A message template with `?var` wildcards, e.g. an advertised request shape
/// `(ask-all :content (price ?item ?price))`.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    pattern: SExpr,
}

impl Template {
    pub fn new(pattern: SExpr) -> Self {
        Template { pattern }
    }

    pub fn parse(src: &str) -> Result<Self, crate::SExprError> {
        Ok(Template::new(SExpr::parse(src)?))
    }

    pub fn pattern(&self) -> &SExpr {
        &self.pattern
    }

    /// Attempts to match a concrete s-expression against the template,
    /// returning the variable bindings on success.
    pub fn match_expr(&self, expr: &SExpr) -> Option<Bindings> {
        let mut b = Bindings::new();
        if unify_into(&self.pattern, expr, &mut b) {
            Some(b)
        } else {
            None
        }
    }

    /// Matches a whole KQML message: the message's s-expression form must
    /// unify with the template. Keyword parameters present in the template
    /// must appear in the message (in any order); extra message parameters
    /// are allowed, mirroring KQML's "fill in the template" semantics.
    pub fn match_message(&self, msg: &Message) -> Option<Bindings> {
        let pat_items = self.pattern.as_list()?;
        let mut pat_iter = pat_items.iter();
        let head = pat_iter.next()?;
        let mut b = Bindings::new();
        // Performative must unify.
        if !unify_into(head, &SExpr::atom(msg.performative.as_str()), &mut b) {
            return None;
        }
        // Each template (:kw value) pair must unify with the message param.
        loop {
            let kw = match pat_iter.next() {
                None => break,
                Some(k) => k.as_atom().filter(|s| s.starts_with(':'))?,
            };
            let pat_val = pat_iter.next()?;
            let msg_val = msg.get(&kw[1..])?;
            if !unify_into(pat_val, msg_val, &mut b) {
                return None;
            }
        }
        Some(b)
    }
}

/// Unifies two s-expressions where *either* side may contain variables.
/// Returns the merged bindings on success. (Template matching, where only
/// the pattern has variables, is the common case; advertisement-vs-request
/// unification in KQML brokering can have variables on both sides.)
pub fn unify(a: &SExpr, b: &SExpr) -> Option<Bindings> {
    let mut bindings = Bindings::new();
    if unify2(a, b, &mut bindings) {
        Some(bindings)
    } else {
        None
    }
}

/// One-sided unification: variables only in `pattern`.
fn unify_into(pattern: &SExpr, expr: &SExpr, b: &mut Bindings) -> bool {
    if pattern.is_variable() {
        let name = pattern.as_atom().expect("variable is atom");
        match b.get(name) {
            Some(bound) => bound == expr,
            None => {
                b.insert(name.to_string(), expr.clone());
                true
            }
        }
    } else {
        match (pattern, expr) {
            (SExpr::Atom(p), SExpr::Atom(e)) => p == e,
            (SExpr::Str(p), SExpr::Str(e)) => p == e,
            (SExpr::List(ps), SExpr::List(es)) => {
                ps.len() == es.len() && ps.iter().zip(es).all(|(p, e)| unify_into(p, e, b))
            }
            _ => false,
        }
    }
}

/// Two-sided unification with a shared binding environment and resolution
/// of already-bound variables (no occurs check needed: bindings are ground
/// after resolution because variables only bind to variable-free terms or
/// chains that terminate in them).
fn unify2(a: &SExpr, b: &SExpr, env: &mut Bindings) -> bool {
    let a = resolve(a, env);
    let b = resolve(b, env);
    match (&a, &b) {
        (SExpr::Atom(x), _) if x.starts_with('?') => {
            if contains_var(&b, x) {
                return false; // occurs check
            }
            env.insert(x.to_string(), b.clone());
            true
        }
        (_, SExpr::Atom(y)) if y.starts_with('?') => {
            if contains_var(&a, y) {
                return false;
            }
            env.insert(y.to_string(), a.clone());
            true
        }
        (SExpr::Atom(x), SExpr::Atom(y)) => x == y,
        (SExpr::Str(x), SExpr::Str(y)) => x == y,
        (SExpr::List(xs), SExpr::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| unify2(x, y, env))
        }
        _ => false,
    }
}

fn resolve(e: &SExpr, env: &Bindings) -> SExpr {
    let mut cur = e.clone();
    while let SExpr::Atom(name) = &cur {
        if name.starts_with('?') {
            if let Some(next) = env.get(name.as_str()) {
                cur = next.clone();
                continue;
            }
        }
        break;
    }
    cur
}

fn contains_var(e: &SExpr, var: &str) -> bool {
    match e {
        SExpr::Atom(a) => a == var,
        SExpr::Str(_) => false,
        SExpr::List(items) => items.iter().any(|i| contains_var(i, var)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Performative;

    #[test]
    fn simple_variable_binding() {
        let t = Template::parse("(price ?item ?amount)").unwrap();
        let b = t.match_expr(&SExpr::parse("(price widget 42)").unwrap()).unwrap();
        assert_eq!(b["?item"], SExpr::atom("widget"));
        assert_eq!(b["?amount"], SExpr::atom("42"));
    }

    #[test]
    fn repeated_variables_must_agree() {
        let t = Template::parse("(pair ?x ?x)").unwrap();
        assert!(t.match_expr(&SExpr::parse("(pair a a)").unwrap()).is_some());
        assert!(t.match_expr(&SExpr::parse("(pair a b)").unwrap()).is_none());
    }

    #[test]
    fn literal_mismatch_fails() {
        let t = Template::parse("(price ?item)").unwrap();
        assert!(t.match_expr(&SExpr::parse("(cost widget)").unwrap()).is_none());
        assert!(t.match_expr(&SExpr::parse("(price a b)").unwrap()).is_none()); // arity
    }

    #[test]
    fn message_template_allows_extra_params() {
        // Advertised template: "I accept ask-all with SQL content".
        let t = Template::parse("(ask-all :language SQL :content ?query)").unwrap();
        let msg = Message::new(Performative::AskAll)
            .with_sender("someone")
            .with_language("SQL")
            .with_content(SExpr::string("select * from C2"));
        let b = t.match_message(&msg).unwrap();
        assert_eq!(b["?query"], SExpr::string("select * from C2"));
        // Missing required parameter fails.
        let msg2 = Message::new(Performative::AskAll).with_sender("someone");
        assert!(t.match_message(&msg2).is_none());
        // Wrong performative fails.
        let msg3 =
            Message::new(Performative::Tell).with_language("SQL").with_content(SExpr::string("x"));
        assert!(t.match_message(&msg3).is_none());
    }

    #[test]
    fn variable_performative() {
        let t = Template::parse("(?p :content ?c)").unwrap();
        let msg = Message::new(Performative::Subscribe).with_content(SExpr::atom("x"));
        let b = t.match_message(&msg).unwrap();
        assert_eq!(b["?p"], SExpr::atom("subscribe"));
    }

    #[test]
    fn two_sided_unification() {
        let a = SExpr::parse("(f ?x b)").unwrap();
        let b = SExpr::parse("(f a ?y)").unwrap();
        let env = unify(&a, &b).unwrap();
        assert_eq!(env["?x"], SExpr::atom("a"));
        assert_eq!(env["?y"], SExpr::atom("b"));
    }

    #[test]
    fn two_sided_chained_variables() {
        let a = SExpr::parse("(f ?x ?x)").unwrap();
        let b = SExpr::parse("(f ?y c)").unwrap();
        let env = unify(&a, &b).unwrap();
        // ?x unified with ?y, then with c — both resolve to c.
        let rx = super::resolve(&SExpr::atom("?x"), &env);
        let ry = super::resolve(&SExpr::atom("?y"), &env);
        assert_eq!(rx, SExpr::atom("c"));
        assert_eq!(ry, SExpr::atom("c"));
    }

    #[test]
    fn occurs_check_prevents_infinite_terms() {
        let a = SExpr::parse("?x").unwrap();
        let b = SExpr::parse("(f ?x)").unwrap();
        assert!(unify(&a, &b).is_none());
    }

    #[test]
    fn strings_and_atoms_do_not_unify() {
        assert!(unify(&SExpr::atom("a"), &SExpr::string("a")).is_none());
    }
}
