//! Built-in predicates evaluated over ground terms.

use crate::term::Const;
use std::fmt;

/// Comparison operators available as builtins in rule bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    pub fn as_str(&self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }

    pub fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "=" | "==" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Ne,
            _ => return None,
        })
    }

    /// Evaluates the comparison on ground constants. Incomparable kinds are
    /// `false` for every operator except `!=`, which is `true` (distinct
    /// kinds are certainly not equal).
    pub fn eval(&self, a: &Const, b: &Const) -> bool {
        use std::cmp::Ordering::*;
        match a.compare(b) {
            Some(ord) => match self {
                CmpOp::Lt => ord == Less,
                CmpOp::Le => ord != Greater,
                CmpOp::Gt => ord == Greater,
                CmpOp::Ge => ord != Less,
                CmpOp::Eq => ord == Equal,
                CmpOp::Ne => ord != Equal,
            },
            None => matches!(self, CmpOp::Ne),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Evaluates the 4-ary `overlaps(ALo, AHi, BLo, BHi)` builtin: whether the
/// closed intervals `[ALo, AHi]` and `[BLo, BHi]` share a point. Used by the
/// broker's matchmaking rules for range-constraint overlap.
pub fn interval_overlaps(a_lo: &Const, a_hi: &Const, b_lo: &Const, b_hi: &Const) -> bool {
    // max(lo) <= min(hi) with numeric/lexicographic comparison.
    let lo = match a_lo.compare(b_lo) {
        Some(std::cmp::Ordering::Less) => b_lo,
        Some(_) => a_lo,
        None => return false,
    };
    let hi = match a_hi.compare(b_hi) {
        Some(std::cmp::Ordering::Greater) => b_hi,
        Some(_) => a_hi,
        None => return false,
    };
    matches!(lo.compare(hi), Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_on_numbers() {
        assert!(CmpOp::Lt.eval(&Const::int(1), &Const::float(1.5)));
        assert!(CmpOp::Ge.eval(&Const::int(2), &Const::int(2)));
        assert!(CmpOp::Ne.eval(&Const::int(2), &Const::int(3)));
        assert!(!CmpOp::Eq.eval(&Const::int(2), &Const::int(3)));
    }

    #[test]
    fn comparisons_on_symbols() {
        assert!(CmpOp::Lt.eval(&Const::sym("a"), &Const::sym("b")));
        assert!(CmpOp::Eq.eval(&Const::sym("a"), &Const::sym("a")));
    }

    #[test]
    fn incomparable_kinds() {
        assert!(!CmpOp::Lt.eval(&Const::sym("a"), &Const::int(1)));
        assert!(!CmpOp::Eq.eval(&Const::sym("a"), &Const::int(1)));
        assert!(CmpOp::Ne.eval(&Const::sym("a"), &Const::int(1)));
    }

    #[test]
    fn op_parsing_round_trips() {
        for s in ["<", "<=", ">", ">=", "=", "!="] {
            assert_eq!(CmpOp::parse(s).unwrap().as_str(), s);
        }
        assert_eq!(CmpOp::parse("=="), Some(CmpOp::Eq));
        assert_eq!(CmpOp::parse("<>"), Some(CmpOp::Ne));
        assert_eq!(CmpOp::parse("~"), None);
    }

    #[test]
    fn interval_overlap_cases() {
        let i = Const::int;
        assert!(interval_overlaps(&i(43), &i(75), &i(25), &i(65))); // the paper's ages
        assert!(!interval_overlaps(&i(1), &i(5), &i(6), &i(10)));
        assert!(interval_overlaps(&i(1), &i(5), &i(5), &i(10))); // touching
        assert!(!interval_overlaps(&Const::sym("a"), &i(5), &i(1), &i(2)));
    }
}
