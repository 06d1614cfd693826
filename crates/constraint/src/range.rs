//! Interval algebra over [`Value`]s.

use crate::Value;
use std::fmt;

/// One end of an interval.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// No constraint on this end.
    Unbounded,
    /// The end point is included (`>=` / `<=`).
    Incl(Value),
    /// The end point is excluded (`>` / `<`).
    Excl(Value),
}

impl Bound {
    fn value(&self) -> Option<&Value> {
        match self {
            Bound::Unbounded => None,
            Bound::Incl(v) | Bound::Excl(v) => Some(v),
        }
    }
}

/// A (possibly unbounded) interval of values: the workhorse for advertised
/// restrictions such as `patient.age between 43 and 75`.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    pub lo: Bound,
    pub hi: Bound,
}

impl Range {
    /// The interval containing every value.
    pub fn full() -> Self {
        Range { lo: Bound::Unbounded, hi: Bound::Unbounded }
    }

    /// The closed interval `[lo, hi]`.
    pub fn between(lo: Value, hi: Value) -> Self {
        Range { lo: Bound::Incl(lo), hi: Bound::Incl(hi) }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: Value) -> Self {
        Range { lo: Bound::Incl(v.clone()), hi: Bound::Incl(v) }
    }

    /// `[v, +inf)` or `(v, +inf)`.
    pub fn at_least(v: Value, inclusive: bool) -> Self {
        let lo = if inclusive { Bound::Incl(v) } else { Bound::Excl(v) };
        Range { lo, hi: Bound::Unbounded }
    }

    /// `(-inf, v]` or `(-inf, v)`.
    pub fn at_most(v: Value, inclusive: bool) -> Self {
        let hi = if inclusive { Bound::Incl(v) } else { Bound::Excl(v) };
        Range { lo: Bound::Unbounded, hi }
    }

    /// Whether this range denotes exactly one value; returns it if so.
    pub fn as_point(&self) -> Option<&Value> {
        match (&self.lo, &self.hi) {
            (Bound::Incl(a), Bound::Incl(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Whether the interval contains at least one value.
    ///
    /// Empty cases are inverted bounds (`lo > hi`), equal bounds where either
    /// end is exclusive, incomparable end points (ill-typed constraint), and
    /// adjacent exclusive integer bounds like `(3, 4)` which contain no
    /// integer. Continuous kinds treat `(a, b)` with `a < b` as non-empty.
    pub fn is_satisfiable(&self) -> bool {
        let (lo_v, hi_v) = match (self.lo.value(), self.hi.value()) {
            (Some(l), Some(h)) => (l, h),
            _ => return true, // at least one side unbounded
        };
        let ord = match lo_v.partial_cmp(hi_v) {
            Some(o) => o,
            None => return false, // incomparable kinds, e.g. age > 'abc'
        };
        match ord {
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                matches!(self.lo, Bound::Incl(_)) && matches!(self.hi, Bound::Incl(_))
            }
            std::cmp::Ordering::Less => {
                // (n, n+1) over integers is empty.
                if let (Bound::Excl(l), Bound::Excl(h)) = (&self.lo, &self.hi) {
                    if let Some(s) = l.succ() {
                        if &s == h {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }

    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: &Value) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Incl(l) => matches!(
                v.partial_cmp(l),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ),
            Bound::Excl(l) => matches!(v.partial_cmp(l), Some(std::cmp::Ordering::Greater)),
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Incl(h) => matches!(
                v.partial_cmp(h),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
            Bound::Excl(h) => matches!(v.partial_cmp(h), Some(std::cmp::Ordering::Less)),
        };
        lo_ok && hi_ok
    }

    /// The intersection of two intervals (may be unsatisfiable).
    pub fn intersect(&self, other: &Range) -> Range {
        Range { lo: tighter_lo(&self.lo, &other.lo), hi: tighter_hi(&self.hi, &other.hi) }
    }

    /// Whether the two intervals share at least one value.
    pub fn overlaps(&self, other: &Range) -> bool {
        self.intersect(other).is_satisfiable()
    }

    /// Whether every value in `self` also lies in `other` (`self ⊆ other`).
    ///
    /// An unsatisfiable `self` is contained in everything.
    pub fn is_subset_of(&self, other: &Range) -> bool {
        if !self.is_satisfiable() {
            return true;
        }
        lo_implies(&self.lo, &other.lo) && hi_implies(&self.hi, &other.hi)
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Bound::Unbounded => write!(f, "(-inf")?,
            Bound::Incl(v) => write!(f, "[{v}")?,
            Bound::Excl(v) => write!(f, "({v}")?,
        }
        write!(f, ", ")?;
        match &self.hi {
            Bound::Unbounded => write!(f, "+inf)"),
            Bound::Incl(v) => write!(f, "{v}]"),
            Bound::Excl(v) => write!(f, "{v})"),
        }
    }
}

/// Picks the more restrictive lower bound. When the two bounds are at the
/// same point, exclusive wins.
fn tighter_lo(a: &Bound, b: &Bound) -> Bound {
    match (a, b) {
        (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            match av.partial_cmp(bv) {
                Some(std::cmp::Ordering::Greater) => a.clone(),
                Some(std::cmp::Ordering::Less) => b.clone(),
                Some(std::cmp::Ordering::Equal) => {
                    if matches!(a, Bound::Excl(_)) {
                        a.clone()
                    } else {
                        b.clone()
                    }
                }
                // Incomparable kinds: keep an impossible pair; satisfiability
                // checks will report the range as empty.
                None => Bound::Excl(Value::Float(f64::NAN)),
            }
        }
    }
}

/// Picks the more restrictive upper bound.
fn tighter_hi(a: &Bound, b: &Bound) -> Bound {
    match (a, b) {
        (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            match av.partial_cmp(bv) {
                Some(std::cmp::Ordering::Less) => a.clone(),
                Some(std::cmp::Ordering::Greater) => b.clone(),
                Some(std::cmp::Ordering::Equal) => {
                    if matches!(a, Bound::Excl(_)) {
                        a.clone()
                    } else {
                        b.clone()
                    }
                }
                None => Bound::Excl(Value::Float(f64::NAN)),
            }
        }
    }
}

/// Whether lower bound `a` is at least as restrictive as lower bound `b`.
fn lo_implies(a: &Bound, b: &Bound) -> bool {
    match (b, a) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            match av.partial_cmp(bv) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Less) | None => false,
                Some(std::cmp::Ordering::Equal) => {
                    // a >= v implies b >= v; a > v implies b >= v and b > v.
                    matches!(a, Bound::Excl(_)) || matches!(b, Bound::Incl(_))
                }
            }
        }
    }
}

/// Whether upper bound `a` is at least as restrictive as upper bound `b`.
fn hi_implies(a: &Bound, b: &Bound) -> bool {
    match (b, a) {
        (Bound::Unbounded, _) => true,
        (_, Bound::Unbounded) => false,
        _ => {
            let (av, bv) = (a.value().unwrap(), b.value().unwrap());
            match av.partial_cmp(bv) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) | None => false,
                Some(std::cmp::Ordering::Equal) => {
                    matches!(a, Bound::Excl(_)) || matches!(b, Bound::Incl(_))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn paper_age_ranges_overlap() {
        // Advertised 43..=75 vs requested 25..=65: overlap is 43..=65.
        let advertised = Range::between(int(43), int(75));
        let requested = Range::between(int(25), int(65));
        assert!(advertised.overlaps(&requested));
        let both = advertised.intersect(&requested);
        assert!(both.contains(&int(43)));
        assert!(both.contains(&int(65)));
        assert!(!both.contains(&int(66)));
        assert!(!both.contains(&int(42)));
    }

    #[test]
    fn disjoint_ranges_do_not_overlap() {
        let a = Range::between(int(1), int(5));
        let b = Range::between(int(6), int(10));
        assert!(!a.overlaps(&b));
        assert!(!a.intersect(&b).is_satisfiable());
    }

    #[test]
    fn touching_closed_ranges_overlap_at_the_point() {
        let a = Range::between(int(1), int(5));
        let b = Range::between(int(5), int(10));
        assert!(a.overlaps(&b));
        assert_eq!(a.intersect(&b).as_point(), Some(&int(5)));
    }

    #[test]
    fn touching_open_ranges_do_not_overlap() {
        let a = Range::at_most(int(5), false); // < 5
        let b = Range::at_least(int(5), true); // >= 5
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn adjacent_open_integer_range_is_empty() {
        // (3, 4) has no integer members.
        let r = Range { lo: Bound::Excl(int(3)), hi: Bound::Excl(int(4)) };
        assert!(!r.is_satisfiable());
        // (3.0, 4.0) over floats is non-empty.
        let r = Range { lo: Bound::Excl(Value::Float(3.0)), hi: Bound::Excl(Value::Float(4.0)) };
        assert!(r.is_satisfiable());
    }

    #[test]
    fn subset_logic() {
        let narrow = Range::between(int(43), int(65));
        let wide = Range::between(int(25), int(75));
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(narrow.is_subset_of(&Range::full()));
        assert!(!Range::full().is_subset_of(&narrow));
        assert!(narrow.is_subset_of(&narrow));
    }

    #[test]
    fn subset_respects_bound_exclusivity() {
        let open = Range { lo: Bound::Excl(int(0)), hi: Bound::Excl(int(10)) };
        let closed = Range::between(int(0), int(10));
        assert!(open.is_subset_of(&closed));
        assert!(!closed.is_subset_of(&open));
    }

    #[test]
    fn empty_range_is_subset_of_everything() {
        let empty = Range::between(int(10), int(5));
        assert!(!empty.is_satisfiable());
        assert!(empty.is_subset_of(&Range::between(int(100), int(200))));
    }

    #[test]
    fn incomparable_kinds_make_empty_intersection() {
        let nums = Range::between(int(1), int(5));
        let strs = Range::between(Value::str("a"), Value::str("z"));
        assert!(!nums.overlaps(&strs));
    }

    #[test]
    fn point_ranges() {
        let p = Range::point(int(7));
        assert_eq!(p.as_point(), Some(&int(7)));
        assert!(p.contains(&int(7)));
        assert!(!p.contains(&int(8)));
        assert!(p.is_satisfiable());
    }

    #[test]
    fn mixed_numeric_kinds_compare() {
        let r = Range::between(Value::Float(1.5), Value::Float(2.5));
        assert!(r.contains(&int(2)));
        assert!(!r.contains(&int(3)));
        assert!(r.overlaps(&Range::point(int(2))));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Range::between(int(1), int(2)).to_string(), "[1, 2]");
        assert_eq!(Range::at_least(int(3), false).to_string(), "(3, +inf)");
        assert_eq!(Range::full().to_string(), "(-inf, +inf)");
    }
}
