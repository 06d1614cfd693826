//! The set the service ontology's list-valued fields are held in.
//!
//! An advertisement is a handful of one- to three-element lists —
//! languages, conversations, capabilities, classes, slots, keys — and a
//! broker's repository holds one of each per agent. [`SortedSet`] keeps
//! an empty set and a set of one inside the record that holds it, with no
//! heap block, and a larger set as one strictly ascending block exactly
//! as long as the set. Iteration is ascending, as a `BTreeSet`'s is, so
//! every rendering that walks a set — the KQML wire form, size estimates,
//! fingerprints — comes out in the same order.
//!
//! A single `insert` or `remove` is O(len) and rebuilds the block; bulk
//! construction (`collect`, `extend`, `from`) sorts and de-duplicates once.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A set of `T` held as its ascending run: in place up to one element,
/// one exact block beyond. Equality, order, hashing and `Debug` are those
/// of that run as a slice, whichever form holds it.
#[derive(Clone)]
pub struct SortedSet<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Empty,
    One(T),
    /// Two or more elements, strictly ascending.
    Many(Box<[T]>),
}

impl<T> SortedSet<T> {
    pub const fn new() -> Self {
        SortedSet(Repr::Empty)
    }

    /// The set of the strictly ascending `items`, in the form its length
    /// calls for.
    fn from_sorted(mut items: Vec<T>) -> Self {
        SortedSet(if items.len() > 1 {
            Repr::Many(items.into_boxed_slice())
        } else {
            items.pop().map_or(Repr::Empty, Repr::One)
        })
    }

    /// The elements as an ascending vector, to rebuild the set from.
    fn into_vec(self) -> Vec<T> {
        match self.0 {
            Repr::Empty => Vec::new(),
            Repr::One(one) => vec![one],
            Repr::Many(many) => many.into_vec(),
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Elements the set has room for: its length, always — an element
    /// held in place fills its room, and a block is exactly as long as
    /// the set.
    pub fn capacity(&self) -> usize {
        self.len()
    }

    /// The elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// The elements as one ascending run.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(one) => std::slice::from_ref(one),
            Repr::Many(many) => many,
        }
    }

    /// The least element.
    pub fn first(&self) -> Option<&T> {
        self.as_slice().first()
    }

    /// Empties the set, freeing the block a larger set held.
    pub fn clear(&mut self) {
        self.0 = Repr::Empty;
    }
}

impl<T: Ord> SortedSet<T> {
    fn search<Q>(&self, value: &Q) -> Result<usize, usize>
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.as_slice().binary_search_by(|probe| probe.borrow().cmp(value))
    }

    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.search(value).is_ok()
    }

    /// Whether every element is also in `other`.
    pub fn is_subset(&self, other: &SortedSet<T>) -> bool {
        self.iter().all(|mine| other.contains(mine))
    }

    /// Adds `value`; `false`, and the set unchanged, if an equal element
    /// was already present.
    pub fn insert(&mut self, value: T) -> bool {
        let Err(at) = self.search(&value) else { return false };
        if self.is_empty() {
            self.0 = Repr::One(value);
            return true;
        }
        let mut items = Vec::with_capacity(self.len() + 1);
        items.extend(std::mem::take(self));
        items.insert(at, value);
        *self = SortedSet::from_sorted(items);
        true
    }

    /// Removes the element equal to `value`; `false` if there was none.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let Ok(at) = self.search(value) else { return false };
        let mut items = std::mem::take(self).into_vec();
        items.remove(at);
        *self = SortedSet::from_sorted(items);
        true
    }
}

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        SortedSet::new()
    }
}

impl<T: Ord> Extend<T> for SortedSet<T> {
    /// Appends — into a block sized from the iterator's own count, where
    /// it gives one — then sorts and de-duplicates once. The sort is
    /// stable and the elements already held come first, so of two equal
    /// elements the earlier stays, as with repeated `insert`.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        let mut items = std::mem::take(self).into_vec();
        let held = items.len();
        items.reserve_exact(iter.size_hint().0);
        items.extend(iter);
        if items.len() > held {
            items.sort();
            items.dedup();
        }
        *self = SortedSet::from_sorted(items);
    }
}

impl<T: Ord> FromIterator<T> for SortedSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = SortedSet::new();
        set.extend(iter);
        set
    }
}

impl<T: Ord, const N: usize> From<[T; N]> for SortedSet<T> {
    fn from(items: [T; N]) -> Self {
        items.into_iter().collect()
    }
}

impl<T: PartialEq> PartialEq for SortedSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for SortedSet<T> {}

impl<T: PartialOrd> PartialOrd for SortedSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.as_slice().partial_cmp(other.as_slice())
    }
}

impl<T: Ord> Ord for SortedSet<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T: Hash> Hash for SortedSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl<T: fmt::Debug> fmt::Debug for SortedSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T> IntoIterator for SortedSet<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    /// The elements in ascending order; a set of one yields its element
    /// without a block being made for it.
    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self.0 {
            Repr::Empty => (None, Vec::new()),
            Repr::One(one) => (Some(one), Vec::new()),
            Repr::Many(many) => (None, many.into_vec()),
        };
        one.into_iter().chain(many)
    }
}

impl<'a, T> IntoIterator for &'a SortedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capability, ConversationType};
    use infosleuth_kqml::Text;
    use std::mem::size_of;

    /// Holding one element in place costs the record nothing: a set of
    /// names, capabilities or conversations is as wide as the vector it
    /// replaced.
    #[test]
    fn a_set_is_as_wide_as_a_vector() {
        assert_eq!(size_of::<SortedSet<Text>>(), size_of::<Vec<Text>>());
        assert_eq!(size_of::<SortedSet<Capability>>(), size_of::<Vec<Capability>>());
        assert_eq!(size_of::<SortedSet<ConversationType>>(), size_of::<Vec<ConversationType>>());
    }
}
