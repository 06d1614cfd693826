//! Atomic constraints over a single named slot.

use crate::{Range, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operator of an atomic constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompareOp {
    Eq(Value),
    Ne(Value),
    Lt(Value),
    Le(Value),
    Gt(Value),
    Ge(Value),
    Between(Value, Value),
    In(BTreeSet<Value>),
    NotIn(BTreeSet<Value>),
}

/// An atomic constraint: a slot (e.g. `patient.age`) compared to constants.
///
/// Slots are dotted paths `class.slot` following the paper's service
/// ontology (`patient.age`, `patient.diagnosis_code`). Predicates combine
/// into [`crate::Conjunction`]s, which is what advertisements and queries
/// actually carry.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub slot: String,
    pub op: CompareOp,
}

impl Predicate {
    pub fn new(slot: impl Into<String>, op: CompareOp) -> Self {
        Predicate { slot: slot.into(), op }
    }

    pub fn eq(slot: impl Into<String>, v: impl Into<Value>) -> Self {
        Self::new(slot, CompareOp::Eq(v.into()))
    }

    pub fn ne(slot: impl Into<String>, v: impl Into<Value>) -> Self {
        Self::new(slot, CompareOp::Ne(v.into()))
    }

    pub fn lt(slot: impl Into<String>, v: impl Into<Value>) -> Self {
        Self::new(slot, CompareOp::Lt(v.into()))
    }

    pub fn le(slot: impl Into<String>, v: impl Into<Value>) -> Self {
        Self::new(slot, CompareOp::Le(v.into()))
    }

    pub fn gt(slot: impl Into<String>, v: impl Into<Value>) -> Self {
        Self::new(slot, CompareOp::Gt(v.into()))
    }

    pub fn ge(slot: impl Into<String>, v: impl Into<Value>) -> Self {
        Self::new(slot, CompareOp::Ge(v.into()))
    }

    pub fn between(slot: impl Into<String>, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Self::new(slot, CompareOp::Between(lo.into(), hi.into()))
    }

    pub fn is_in<I, V>(slot: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Self::new(slot, CompareOp::In(values.into_iter().map(Into::into).collect()))
    }

    pub fn not_in<I, V>(slot: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Self::new(slot, CompareOp::NotIn(values.into_iter().map(Into::into).collect()))
    }

    /// The interval this predicate restricts its slot to, for operators that
    /// translate directly to a single interval. `In`/`Ne`/`NotIn` constrain
    /// the domain's point sets instead and return the full range here.
    pub(crate) fn range(&self) -> Range {
        match &self.op {
            CompareOp::Eq(v) => Range::point(v.clone()),
            CompareOp::Lt(v) => Range::at_most(v.clone(), false),
            CompareOp::Le(v) => Range::at_most(v.clone(), true),
            CompareOp::Gt(v) => Range::at_least(v.clone(), false),
            CompareOp::Ge(v) => Range::at_least(v.clone(), true),
            CompareOp::Between(lo, hi) => Range::between(lo.clone(), hi.clone()),
            CompareOp::Ne(_) | CompareOp::In(_) | CompareOp::NotIn(_) => Range::full(),
        }
    }

    /// Whether a concrete value satisfies the predicate.
    pub fn matches(&self, v: &Value) -> bool {
        use std::cmp::Ordering::*;
        match &self.op {
            CompareOp::Eq(c) => v == c,
            CompareOp::Ne(c) => v.comparable(c) && v != c,
            CompareOp::Lt(c) => matches!(v.partial_cmp(c), Some(Less)),
            CompareOp::Le(c) => matches!(v.partial_cmp(c), Some(Less | Equal)),
            CompareOp::Gt(c) => matches!(v.partial_cmp(c), Some(Greater)),
            CompareOp::Ge(c) => matches!(v.partial_cmp(c), Some(Greater | Equal)),
            CompareOp::Between(lo, hi) => Range::between(lo.clone(), hi.clone()).contains(v),
            CompareOp::In(set) => set.iter().any(|c| c == v),
            CompareOp::NotIn(set) => set.iter().all(|c| c != v) && !set.is_empty(),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn set(f: &mut fmt::Formatter<'_>, s: &BTreeSet<Value>) -> fmt::Result {
            write!(f, "(")?;
            for (i, v) in s.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")
        }
        write!(f, "{} ", self.slot)?;
        match &self.op {
            CompareOp::Eq(v) => write!(f, "= {v}"),
            CompareOp::Ne(v) => write!(f, "!= {v}"),
            CompareOp::Lt(v) => write!(f, "< {v}"),
            CompareOp::Le(v) => write!(f, "<= {v}"),
            CompareOp::Gt(v) => write!(f, "> {v}"),
            CompareOp::Ge(v) => write!(f, ">= {v}"),
            CompareOp::Between(lo, hi) => write!(f, "between {lo} and {hi}"),
            CompareOp::In(s) => {
                write!(f, "in ")?;
                set(f, s)
            }
            CompareOp::NotIn(s) => {
                write!(f, "not in ")?;
                set(f, s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_each_operator() {
        assert!(Predicate::eq("a", 1).matches(&Value::Int(1)));
        assert!(!Predicate::eq("a", 1).matches(&Value::Int(2)));
        assert!(Predicate::ne("a", 1).matches(&Value::Int(2)));
        assert!(!Predicate::ne("a", 1).matches(&Value::str("x"))); // incomparable
        assert!(Predicate::lt("a", 5).matches(&Value::Int(4)));
        assert!(Predicate::le("a", 5).matches(&Value::Int(5)));
        assert!(Predicate::gt("a", 5).matches(&Value::Int(6)));
        assert!(Predicate::ge("a", 5).matches(&Value::Int(5)));
        assert!(Predicate::between("a", 1, 3).matches(&Value::Int(2)));
        assert!(!Predicate::between("a", 1, 3).matches(&Value::Int(4)));
        assert!(Predicate::is_in("a", ["x", "y"]).matches(&Value::str("y")));
        assert!(Predicate::not_in("a", ["x", "y"]).matches(&Value::str("z")));
        assert!(!Predicate::not_in("a", ["x"]).matches(&Value::str("x")));
    }

    #[test]
    fn display_matches_paper_style() {
        let p = Predicate::between("patient.age", 43, 75);
        assert_eq!(p.to_string(), "patient.age between 43 and 75");
        let p = Predicate::eq("patient.diagnosis_code", "40W");
        assert_eq!(p.to_string(), "patient.diagnosis_code = '40W'");
        let p = Predicate::is_in("city", ["Dallas", "Houston"]);
        assert_eq!(p.to_string(), "city in ('Dallas', 'Houston')");
    }
}
