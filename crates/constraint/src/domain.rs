//! The normalized constraint on a single slot: an interval plus point sets.

use crate::{CompareOp, Predicate, Range, Value};
use std::collections::BTreeSet;
use std::fmt;

/// The set of values a slot may take under a conjunction of predicates.
///
/// Normal form: one interval (`range`), an optional finite allow-set from
/// `IN` / `=`-chains (`allowed`), and a finite deny-set from `!=` / `NOT IN`
/// (`excluded`). Every predicate over one slot folds into this shape, which
/// makes overlap and implication checks cheap — the broker evaluates these
/// for every advertisement in its repository on every service query.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotDomain {
    pub range: Range,
    /// `Some(set)`: the value must additionally be one of these.
    pub allowed: Option<BTreeSet<Value>>,
    /// The value must not be any of these.
    pub excluded: BTreeSet<Value>,
}

impl Default for SlotDomain {
    fn default() -> Self {
        Self::full()
    }
}

impl SlotDomain {
    /// The unconstrained domain.
    pub fn full() -> Self {
        SlotDomain { range: Range::full(), allowed: None, excluded: BTreeSet::new() }
    }

    /// Folds one more predicate (over this same slot) into the domain.
    pub fn constrain(&mut self, pred: &Predicate) {
        match &pred.op {
            CompareOp::In(set) => {
                let set = set.clone();
                self.allowed = Some(match self.allowed.take() {
                    None => set,
                    Some(prev) => prev.intersection(&set).cloned().collect(),
                });
            }
            CompareOp::Ne(v) => {
                self.excluded.insert(v.clone());
            }
            CompareOp::NotIn(set) => {
                self.excluded.extend(set.iter().cloned());
            }
            _ => {
                self.range = self.range.intersect(&pred.range());
            }
        }
    }

    /// The values of `allowed` that also satisfy range/excluded, if a finite
    /// allow-set is present.
    fn effective_allowed(&self) -> Option<BTreeSet<Value>> {
        self.allowed.as_ref().map(|set| {
            set.iter()
                .filter(|v| self.range.contains(v) && !self.excluded.contains(*v))
                .cloned()
                .collect()
        })
    }

    /// Whether at least one value satisfies the domain.
    ///
    /// For a finite allow-set the check is exact. For pure intervals the
    /// check is exact up to the deny-set: a denied point only empties the
    /// domain when the interval is that single point, or when the interval
    /// is a finite integer interval entirely covered by denied points.
    pub fn is_satisfiable(&self) -> bool {
        if let Some(eff) = self.effective_allowed() {
            return !eff.is_empty();
        }
        if !self.range.is_satisfiable() {
            return false;
        }
        if self.excluded.is_empty() {
            return true;
        }
        if let Some(p) = self.range.as_point() {
            return !self.excluded.contains(p);
        }
        // Finite integer interval fully covered by exclusions?
        if let Some(values) = self.enumerate_int_range(64) {
            return values.iter().any(|v| !self.excluded.contains(v));
        }
        true
    }

    /// Enumerates the integers in the range when it is a small finite
    /// integer interval (at most `cap` values). Used to make exclusion
    /// reasoning exact on the small ranges typical of advertisements.
    fn enumerate_int_range(&self, cap: usize) -> Option<Vec<Value>> {
        let lo = match &self.range.lo {
            crate::Bound::Incl(Value::Int(i)) => *i,
            crate::Bound::Excl(Value::Int(i)) => i.checked_add(1)?,
            _ => return None,
        };
        let hi = match &self.range.hi {
            crate::Bound::Incl(Value::Int(i)) => *i,
            crate::Bound::Excl(Value::Int(i)) => i.checked_sub(1)?,
            _ => return None,
        };
        if hi < lo {
            return Some(vec![]);
        }
        let width = (hi - lo) as u128 + 1;
        if width > cap as u128 {
            return None;
        }
        Some((lo..=hi).map(Value::Int).collect())
    }

    /// Whether a concrete value lies in the domain.
    pub fn contains(&self, v: &Value) -> bool {
        if let Some(allowed) = &self.allowed {
            if !allowed.contains(v) {
                return false;
            }
        }
        self.range.contains(v) && !self.excluded.contains(v)
    }

    /// The intersection of two slot domains.
    pub fn intersect(&self, other: &SlotDomain) -> SlotDomain {
        let allowed = match (&self.allowed, &other.allowed) {
            (None, None) => None,
            (Some(a), None) | (None, Some(a)) => Some(a.clone()),
            (Some(a), Some(b)) => Some(a.intersection(b).cloned().collect()),
        };
        SlotDomain {
            range: self.range.intersect(&other.range),
            allowed,
            excluded: self.excluded.union(&other.excluded).cloned().collect(),
        }
    }

    /// Whether the two domains share at least one value.
    pub fn overlaps(&self, other: &SlotDomain) -> bool {
        self.intersect(other).is_satisfiable()
    }

    /// Whether every value in `self` also lies in `other` (`self ⊆ other`).
    ///
    /// Exact when `self` carries a finite allow-set or a small finite
    /// integer interval; otherwise requires range containment and that
    /// `other`'s deny-set / allow-set cannot cut into `self` (conservative:
    /// answers `false` when unsure, which only makes the broker rank a
    /// perfectly-specific agent as merely overlapping).
    pub fn implies(&self, other: &SlotDomain) -> bool {
        if !self.is_satisfiable() {
            return true;
        }
        // Finite self: check member-wise, exactly.
        if let Some(eff) = self.effective_allowed() {
            return eff.iter().all(|v| other.contains(v));
        }
        if self.allowed.is_none() {
            if let Some(values) = self.enumerate_int_range(64) {
                return values
                    .iter()
                    .filter(|v| !self.excluded.contains(*v))
                    .all(|v| other.contains(v));
            }
        }
        // Infinite self: other must not have a finite allow-set.
        if other.allowed.is_some() {
            return false;
        }
        if !self.range.is_subset_of(&other.range) {
            return false;
        }
        // Every value other denies must already be denied (or out of range) in self.
        other.excluded.iter().all(|v| self.excluded.contains(v) || !self.range.contains(v))
    }
}

impl fmt::Display for SlotDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.range)?;
        if let Some(a) = &self.allowed {
            write!(f, " in {{")?;
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}}")?;
        }
        if !self.excluded.is_empty() {
            write!(f, " excluding {{")?;
            for (i, v) in self.excluded.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(preds: &[Predicate]) -> SlotDomain {
        let mut d = SlotDomain::full();
        for p in preds {
            d.constrain(p);
        }
        d
    }

    #[test]
    fn range_and_in_set_combine() {
        let d = dom(&[Predicate::between("s", 1, 10), Predicate::is_in("s", [2i64, 5, 20])]);
        assert!(d.contains(&Value::Int(2)));
        assert!(d.contains(&Value::Int(5)));
        assert!(!d.contains(&Value::Int(20))); // outside range
        assert!(!d.contains(&Value::Int(3))); // not in allow-set
        assert!(d.is_satisfiable());
    }

    #[test]
    fn contradictory_in_sets_are_unsat() {
        let d = dom(&[Predicate::is_in("s", ["a", "b"]), Predicate::is_in("s", ["c"])]);
        assert!(!d.is_satisfiable());
    }

    #[test]
    fn point_range_with_exclusion_is_unsat() {
        let d = dom(&[Predicate::eq("s", 5), Predicate::ne("s", 5)]);
        assert!(!d.is_satisfiable());
    }

    #[test]
    fn small_int_interval_fully_excluded_is_unsat() {
        let d = dom(&[Predicate::between("s", 1, 3), Predicate::not_in("s", [1i64, 2, 3])]);
        assert!(!d.is_satisfiable());
        let d2 = dom(&[Predicate::between("s", 1, 3), Predicate::not_in("s", [1i64, 3])]);
        assert!(d2.is_satisfiable());
        assert!(d2.contains(&Value::Int(2)));
    }

    #[test]
    fn overlap_is_symmetric_on_examples() {
        let a = dom(&[Predicate::between("s", 43, 75)]);
        let b = dom(&[Predicate::between("s", 25, 65)]);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        let c = dom(&[Predicate::between("s", 80, 90)]);
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn implication_with_finite_sets_is_exact() {
        let a = dom(&[Predicate::is_in("s", [2i64, 3])]);
        let b = dom(&[Predicate::between("s", 1, 10)]);
        assert!(a.implies(&b));
        assert!(!b.implies(&a));
        let c = dom(&[Predicate::between("s", 3, 10)]);
        assert!(!a.implies(&c)); // 2 not in [3,10]
    }

    #[test]
    fn implication_respects_exclusions() {
        let a = dom(&[Predicate::between("s", 1, 100)]);
        let b = dom(&[Predicate::between("s", 1, 100), Predicate::ne("s", 50)]);
        assert!(!a.implies(&b)); // a admits 50, b does not
        assert!(b.implies(&a));
        // If a already excludes 50, implication holds.
        let a2 = dom(&[Predicate::between("s", 1, 100), Predicate::ne("s", 50)]);
        assert!(a2.implies(&b));
    }

    #[test]
    fn small_integer_interval_implication_is_exact() {
        // [1,3] minus {2} ⊆ {1,3}
        let a = dom(&[Predicate::between("s", 1, 3), Predicate::ne("s", 2)]);
        let b = dom(&[Predicate::is_in("s", [1i64, 3])]);
        assert!(a.implies(&b));
    }

    #[test]
    fn intersect_merges_all_parts() {
        let a = dom(&[Predicate::between("s", 1, 10), Predicate::ne("s", 5)]);
        let b = dom(&[Predicate::between("s", 5, 20), Predicate::ne("s", 7)]);
        let i = a.intersect(&b);
        assert!(!i.contains(&Value::Int(5)));
        assert!(!i.contains(&Value::Int(7)));
        assert!(i.contains(&Value::Int(6)));
        assert!(!i.contains(&Value::Int(11)));
    }

    #[test]
    fn display_is_readable() {
        let d = dom(&[Predicate::between("s", 1, 3), Predicate::ne("s", 2)]);
        assert_eq!(d.to_string(), "[1, 3] excluding {2}");
    }
}
