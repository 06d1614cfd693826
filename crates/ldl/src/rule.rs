//! Rules and body literals, with safety (range restriction) checking.

use crate::builtins::CmpOp;
use crate::term::{Atom, Term};
use std::collections::BTreeSet;
use std::fmt;

/// A body literal: a positive or negated atom, or a builtin test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// `p(...)`
    Pos(Atom),
    /// `not p(...)` — stratified negation.
    Neg(Atom),
    /// `X < Y` etc. over bound terms.
    Cmp { op: CmpOp, lhs: Term, rhs: Term },
    /// `overlaps(ALo, AHi, BLo, BHi)` — closed-interval overlap.
    Overlaps { a_lo: Term, a_hi: Term, b_lo: Term, b_hi: Term },
}

impl Literal {
    /// Variables the literal *requires* to be bound before evaluation
    /// (negation and builtins), or binds itself (positive atoms bind all
    /// their variables).
    fn vars(&self) -> Vec<&str> {
        fn term_var(t: &Term) -> Option<&str> {
            match t {
                Term::Var(v) => Some(v.as_str()),
                Term::Const(_) => None,
            }
        }
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.vars().collect(),
            Literal::Cmp { lhs, rhs, .. } => [lhs, rhs].into_iter().filter_map(term_var).collect(),
            Literal::Overlaps { a_lo, a_hi, b_lo, b_hi } => {
                [a_lo, a_hi, b_lo, b_hi].into_iter().filter_map(term_var).collect()
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Literal::Overlaps { a_lo, a_hi, b_lo, b_hi } => {
                write!(f, "overlaps({a_lo}, {a_hi}, {b_lo}, {b_hi})")
            }
        }
    }
}

/// Errors raised when constructing an unsafe rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A head variable does not occur in any positive body literal.
    UnsafeHeadVar { rule: String, var: String },
    /// A variable in a negated or builtin literal does not occur in any
    /// positive body literal.
    UnboundVar { rule: String, var: String },
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::UnsafeHeadVar { rule, var } => {
                write!(f, "unsafe rule '{rule}': head variable {var} not bound by a positive body literal")
            }
            RuleError::UnboundVar { rule, var } => {
                write!(f, "unsafe rule '{rule}': variable {var} in negation/builtin not bound by a positive body literal")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// A Datalog rule `head :- body.` A rule with an empty body is a fact
/// schema (the head must then be ground).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Literal>,
}

impl Rule {
    /// Builds a rule, enforcing *safety* (range restriction): every head
    /// variable and every variable used in a negated or builtin literal
    /// must appear in some positive body literal.
    pub fn checked(head: Atom, body: Vec<Literal>) -> Result<Rule, RuleError> {
        let rule = Rule { head, body };
        rule.check_safety()?;
        Ok(rule)
    }

    /// Builds a rule without checking safety. For analysis tooling that
    /// wants to *report* safety violations (with source spans) rather than
    /// fail on construction. Evaluating an unchecked unsafe rule derives
    /// nothing rather than crashing, but [`crate::Program::validate`]
    /// rejects such programs before `saturate` runs.
    pub fn unchecked(head: Atom, body: Vec<Literal>) -> Rule {
        Rule { head, body }
    }

    /// Re-runs the safety (range restriction) check on an already-built
    /// rule: every head variable and every variable used in a negated or
    /// builtin literal must appear in some positive body literal. `Rule`
    /// has public fields and [`Rule::unchecked`], so a rule can bypass
    /// [`Rule::checked`]; this is the revalidation entry point.
    pub fn check_safety(&self) -> Result<(), RuleError> {
        let positive: BTreeSet<&str> = self
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) => Some(a.vars()),
                _ => None,
            })
            .flatten()
            .collect();
        for v in self.head.vars() {
            if !positive.contains(v) {
                return Err(RuleError::UnsafeHeadVar {
                    rule: self.to_string(),
                    var: v.to_string(),
                });
            }
        }
        for lit in &self.body {
            if matches!(lit, Literal::Pos(_)) {
                continue;
            }
            for v in lit.vars() {
                if !positive.contains(v) {
                    return Err(RuleError::UnboundVar {
                        rule: self.to_string(),
                        var: v.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Predicates this rule depends on, tagged with whether the dependency
    /// is through negation.
    pub fn dependencies(&self) -> impl Iterator<Item = (&str, bool)> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some((a.pred.as_str(), false)),
            Literal::Neg(a) => Some((a.pred.as_str(), true)),
            _ => None,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    #[test]
    fn safe_rule_accepted() {
        let r = Rule::checked(
            atom("path", &["X", "Y"]),
            vec![Literal::Pos(atom("edge", &["X", "Z"])), Literal::Pos(atom("path", &["Z", "Y"]))],
        );
        assert!(r.is_ok());
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let r = Rule::checked(atom("p", &["X", "Y"]), vec![Literal::Pos(atom("q", &["X"]))]);
        assert!(matches!(r, Err(RuleError::UnsafeHeadVar { var, .. }) if var == "Y"));
    }

    #[test]
    fn unbound_negation_var_rejected() {
        let r = Rule::checked(
            atom("p", &["X"]),
            vec![Literal::Pos(atom("q", &["X"])), Literal::Neg(atom("r", &["Y"]))],
        );
        assert!(matches!(r, Err(RuleError::UnboundVar { var, .. }) if var == "Y"));
    }

    #[test]
    fn unbound_builtin_var_rejected() {
        let r = Rule::checked(
            atom("p", &["X"]),
            vec![
                Literal::Pos(atom("q", &["X"])),
                Literal::Cmp { op: CmpOp::Lt, lhs: Term::var("X"), rhs: Term::var("Y") },
            ],
        );
        assert!(matches!(r, Err(RuleError::UnboundVar { var, .. }) if var == "Y"));
    }

    #[test]
    fn builtin_with_constants_is_safe() {
        let r = Rule::checked(
            atom("p", &["X"]),
            vec![
                Literal::Pos(atom("q", &["X"])),
                Literal::Cmp { op: CmpOp::Lt, lhs: Term::var("X"), rhs: Term::constant(10i64) },
            ],
        );
        assert!(r.is_ok());
    }

    #[test]
    fn display_renders_datalog_syntax() {
        let r = Rule::checked(
            atom("p", &["X"]),
            vec![
                Literal::Pos(atom("q", &["X"])),
                Literal::Neg(atom("r", &["X"])),
                Literal::Cmp { op: CmpOp::Ne, lhs: Term::var("X"), rhs: Term::constant(0i64) },
            ],
        )
        .unwrap();
        assert_eq!(r.to_string(), "p(X) :- q(X), not r(X), X != 0.");
    }
}
