//! Ground constants, terms, atoms, and bindings.

use crate::Sym;
use std::collections::BTreeMap;
use std::fmt;

/// A ground constant: a symbol, string, integer, or float.
///
/// Symbols (`query-processing`) and strings (`"SQL 2.0"`) are distinct, as
/// in LDL; numbers of both kinds compare numerically in builtins. Both
/// textual kinds hold an interned [`Sym`], so a constant is a small `Copy`
/// value: equal and hashed by id, ordered by the text it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    Sym(Sym),
    Str(Sym),
    Int(i64),
    /// Floats are stored as ordered bits; construct via [`Const::float`].
    FloatBits(u64),
}

impl Const {
    pub fn sym(s: impl AsRef<str>) -> Self {
        Const::Sym(Sym::new(s.as_ref()))
    }

    pub fn str(s: impl AsRef<str>) -> Self {
        Const::Str(Sym::new(s.as_ref()))
    }

    pub fn int(i: i64) -> Self {
        Const::Int(i)
    }

    /// Builds a float constant. NaN is rejected by clamping to 0.0 — rules
    /// should never carry NaN, and a total order is required for fact sets.
    pub fn float(f: f64) -> Self {
        let f = if f.is_nan() { 0.0 } else { f };
        Const::FloatBits(f.to_bits())
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Const::Int(i) => Some(*i as f64),
            Const::FloatBits(b) => Some(f64::from_bits(*b)),
            _ => None,
        }
    }

    pub fn as_sym(&self) -> Option<&'static str> {
        match self {
            Const::Sym(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The constant as two integers, equal exactly when the constants are:
    /// a total order that never resolves a symbol, for ordered storage.
    pub(crate) fn id_key(&self) -> (u8, u64) {
        match *self {
            Const::Sym(s) => (0, s.id().into()),
            Const::Str(s) => (1, s.id().into()),
            Const::Int(i) => (2, i as u64),
            Const::FloatBits(b) => (3, b),
        }
    }

    /// Numeric-aware comparison for builtins: numbers compare numerically,
    /// symbols/strings lexicographically within their kind; cross-kind
    /// comparisons return `None`.
    pub fn compare(&self, other: &Const) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Const::Sym(a), Const::Sym(b)) => Some(a.cmp(b)),
            (Const::Str(a), Const::Str(b)) => Some(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Sym(s) => write!(f, "{s}"),
            Const::Str(s) => write!(f, "\"{s}\""),
            Const::Int(i) => write!(f, "{i}"),
            Const::FloatBits(b) => write!(f, "{}", f64::from_bits(*b)),
        }
    }
}

impl From<&str> for Const {
    fn from(s: &str) -> Self {
        Const::sym(s)
    }
}

impl From<i64> for Const {
    fn from(i: i64) -> Self {
        Const::Int(i)
    }
}

impl From<f64> for Const {
    fn from(f: f64) -> Self {
        Const::float(f)
    }
}

/// A term: a variable or a ground constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    Var(String),
    Const(Const),
}

impl Term {
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    pub fn constant(c: impl Into<Const>) -> Self {
        Term::Const(c.into())
    }

    /// Resolves the term under bindings; variables without a binding stay
    /// variables.
    pub fn resolve(&self, b: &Bindings) -> Term {
        match self {
            Term::Var(v) => match b.get(v) {
                Some(c) => Term::Const(*c),
                None => self.clone(),
            },
            Term::Const(_) => self.clone(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Variable bindings: variable name → ground constant.
pub type Bindings = BTreeMap<String, Const>;

/// An atom: `pred(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    pub pred: String,
    pub args: Vec<Term>,
}

impl Atom {
    pub fn new(pred: impl Into<String>, args: Vec<Term>) -> Self {
        Atom { pred: pred.into(), args }
    }

    /// Variables appearing in the atom.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.args.iter().filter_map(|t| match t {
            Term::Var(v) => Some(v.as_str()),
            Term::Const(_) => None,
        })
    }

    /// Grounds the atom under bindings; fails if any variable is unbound.
    pub fn ground(&self, b: &Bindings) -> Option<Vec<Const>> {
        self.args
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(*c),
                Term::Var(v) => b.get(v).copied(),
            })
            .collect()
    }

    /// Unifies the atom's argument pattern against a ground fact tuple,
    /// extending `b` on success (callers clone beforehand on branching).
    pub fn match_fact(&self, fact: &[Const], b: &mut Bindings) -> bool {
        if fact.len() != self.args.len() {
            return false;
        }
        for (t, c) in self.args.iter().zip(fact) {
            match t {
                Term::Const(tc) => {
                    if tc != c {
                        return false;
                    }
                }
                Term::Var(v) => match b.get(v) {
                    Some(bound) => {
                        if bound != c {
                            return false;
                        }
                    }
                    None => {
                        b.insert(v.clone(), *c);
                    }
                },
            }
        }
        true
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_comparisons() {
        assert_eq!(Const::int(2).compare(&Const::float(2.5)), Some(std::cmp::Ordering::Less));
        assert_eq!(Const::sym("a").compare(&Const::sym("b")), Some(std::cmp::Ordering::Less));
        assert_eq!(Const::sym("a").compare(&Const::int(1)), None);
        assert_eq!(Const::str("a").compare(&Const::sym("a")), None);
    }

    #[test]
    fn nan_floats_are_normalized() {
        assert_eq!(Const::float(f64::NAN), Const::float(0.0));
    }

    #[test]
    fn atom_matching_binds_variables() {
        let a = Atom::new("p", vec![Term::var("X"), Term::constant(1i64), Term::var("X")]);
        let mut b = Bindings::new();
        assert!(a.match_fact(&[Const::sym("v"), Const::int(1), Const::sym("v")], &mut b));
        assert_eq!(b["X"], Const::sym("v"));
        let mut b2 = Bindings::new();
        assert!(!a.match_fact(&[Const::sym("v"), Const::int(1), Const::sym("w")], &mut b2));
        let mut b3 = Bindings::new();
        assert!(!a.match_fact(&[Const::sym("v"), Const::int(2), Const::sym("v")], &mut b3));
        let mut b4 = Bindings::new();
        assert!(!a.match_fact(&[Const::sym("v")], &mut b4)); // arity
    }

    #[test]
    fn grounding() {
        let a = Atom::new("p", vec![Term::var("X"), Term::constant("c")]);
        let mut b = Bindings::new();
        assert!(a.ground(&b).is_none());
        b.insert("X".into(), Const::int(3));
        assert_eq!(a.ground(&b).unwrap(), vec![Const::int(3), Const::sym("c")]);
    }

    #[test]
    fn display() {
        let a = Atom::new("isa", vec![Term::constant("x"), Term::var("Y")]);
        assert_eq!(a.to_string(), "isa(x, Y)");
        assert_eq!(Const::str("hi").to_string(), "\"hi\"");
    }
}
