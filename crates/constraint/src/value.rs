//! Scalar values that appear in advertisements and query constraints.

use std::cmp::Ordering;
use std::fmt;

/// A scalar constant in a constraint: integers, floats, strings, booleans.
///
/// Values of different numeric types compare numerically (`Int(2) < Float(2.5)`).
/// Values of incomparable kinds (e.g. a string and an integer) have no
/// ordering; comparisons between them return `None` and constraints built
/// from them are unsatisfiable rather than erroneous, matching the broker's
/// "no match" semantics for ill-typed queries.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// The kind name, used in error messages and the textual constraint syntax.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
        }
    }

    /// Numeric view of the value, if it is a number.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Whether two values are comparable (same kind, or both numeric).
    pub fn comparable(&self, other: &Value) -> bool {
        self.partial_cmp(other).is_some()
    }

    /// The immediate successor for discrete values, used to tighten
    /// exclusive integer bounds. Returns `None` for continuous kinds.
    pub(crate) fn succ(&self) -> Option<Value> {
        match self {
            Value::Int(i) => i.checked_add(1).map(Value::Int),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        matches!(self.partial_cmp(other), Some(Ordering::Equal))
    }
}

// Equality is reflexive/symmetric/transitive under the numeric-promotion
// comparison, including NaN-free floats produced by the parser; NaN floats
// compare as non-equal to everything (including themselves), which keeps the
// algebra's "unsatisfiable, not erroneous" behaviour.
impl Eq for Value {}

// Intentionally NOT delegating to `Ord`: the partial order is the semantic
// comparison (None for incomparable kinds); the total order below exists
// only so values can live in sorted containers.
#[allow(clippy::non_canonical_partial_ord_impl)]
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        }
    }
}

impl Ord for Value {
    /// Total order used only for storage in sorted sets: incomparable kinds
    /// are ordered by kind tag; NaN sorts last among floats.
    fn cmp(&self, other: &Self) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match self.partial_cmp(other) {
            Some(ord) => ord,
            None => match tag(self).cmp(&tag(other)) {
                Ordering::Equal => {
                    // Same tag but incomparable: only possible with NaN.
                    let a_nan = matches!(self, Value::Float(f) if f.is_nan());
                    let b_nan = matches!(other, Value::Float(f) if f.is_nan());
                    a_nan.cmp(&b_nan)
                }
                ord => ord,
            },
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            // Hash integral floats the same as ints so Int(2) == Float(2.0)
            // hashes consistently.
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    state.write_u8(1);
                    state.write_i64(*f as i64);
                } else {
                    state.write_u8(2);
                    state.write_u64(f.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Bool(b) => {
                state.write_u8(4);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_promotion_compares_int_and_float() {
        assert!(Value::Int(2) < Value::Float(2.5));
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn incomparable_kinds_have_no_partial_order() {
        assert!(Value::str("a").partial_cmp(&Value::Int(1)).is_none());
        assert!(Value::Bool(true).partial_cmp(&Value::Int(1)).is_none());
        assert!(!Value::str("1").comparable(&Value::Int(1)));
    }

    #[test]
    fn strings_order_lexicographically() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn total_order_is_consistent_for_sets() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Value::Int(1));
        s.insert(Value::Float(1.0)); // duplicate under Eq
        s.insert(Value::str("a"));
        s.insert(Value::Bool(false));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn succ_and_pred_only_for_ints() {
        assert_eq!(Value::Int(5).succ(), Some(Value::Int(6)));
        assert_eq!(Value::Float(5.0).succ(), None);
        assert_eq!(Value::Int(i64::MAX).succ(), None);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("40W").to_string(), "'40W'");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn nan_is_not_equal_to_itself() {
        let nan = Value::Float(f64::NAN);
        assert_ne!(nan, nan.clone());
    }
}
