//! The set the service ontology's list-valued fields are held in.
//!
//! An advertisement is a handful of one- to three-element lists —
//! languages, conversations, capabilities, classes, slots, keys — and a
//! broker's repository holds one of each per agent. [`SortedSet`] keeps
//! such a list as a strictly ascending vector whose capacity is its
//! length: a set of one costs one element on the heap and an empty set
//! costs nothing. Iteration is ascending, as a `BTreeSet`'s is, so every
//! rendering that walks a set — the KQML wire form, size estimates,
//! fingerprints — comes out in the same order.
//!
//! A single `insert` or `remove` is O(len) and reallocates; bulk
//! construction (`collect`, `extend`, `from`) sorts and de-duplicates once.

use std::borrow::Borrow;

/// A set of `T` as a strictly ascending `Vec<T>` with no spare capacity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortedSet<T>(Vec<T>);

impl<T> SortedSet<T> {
    pub const fn new() -> Self {
        SortedSet(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Heap slots held; equal to [`len`](Self::len) after every mutation.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// The elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// The elements as one ascending run.
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }

    /// The least element.
    pub fn first(&self) -> Option<&T> {
        self.0.first()
    }

    /// Empties the set and returns its heap block.
    pub fn clear(&mut self) {
        self.0 = Vec::new();
    }
}

impl<T: Ord> SortedSet<T> {
    fn search<Q>(&self, value: &Q) -> Result<usize, usize>
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.0.binary_search_by(|probe| probe.borrow().cmp(value))
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
        self.0.iter().all(|mine| other.contains(mine))
    }

    /// Adds `value`; `false`, and the set unchanged, if an equal element
    /// was already present.
    pub fn insert(&mut self, value: T) -> bool {
        match self.search(&value) {
            Ok(_) => false,
            Err(at) => {
                self.0.reserve_exact(1);
                self.0.insert(at, value);
                self.0.shrink_to_fit();
                true
            }
        }
    }

    /// Removes the element equal to `value`; `false` if there was none.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.search(value) {
            Ok(at) => {
                self.0.remove(at);
                self.0.shrink_to_fit();
                true
            }
            Err(_) => false,
        }
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
        let held = self.0.len();
        self.0.reserve_exact(iter.size_hint().0);
        self.0.extend(iter);
        if self.0.len() > held {
            self.0.sort();
            self.0.dedup();
            self.0.shrink_to_fit();
        }
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

impl<T> IntoIterator for SortedSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a SortedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}
