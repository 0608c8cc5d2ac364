//! A compact bitset over the attributes of one schema.

use dcd_relation::AttrId;
use std::fmt;

/// A set of [`AttrId`]s represented as a bit vector.
///
/// Attribute closures (`X⁺`) and dependency-preservation checks
/// manipulate attribute sets in tight loops; a bitset keeps those
/// operations branch-light and allocation-free after construction.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AttrSet {
    words: Vec<u64>,
    arity: usize,
}

impl AttrSet {
    /// The empty set over a schema of `arity` attributes.
    pub fn empty(arity: usize) -> Self {
        AttrSet { words: vec![0; arity.div_ceil(64)], arity }
    }

    /// The full set over a schema of `arity` attributes.
    pub fn full(arity: usize) -> Self {
        let mut s = Self::empty(arity);
        for i in 0..arity {
            s.insert(AttrId(i as u16));
        }
        s
    }

    /// Builds a set from attribute ids.
    pub fn from_ids(arity: usize, ids: impl IntoIterator<Item = AttrId>) -> Self {
        let mut s = Self::empty(arity);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// The arity of the schema this set ranges over.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserts an attribute; returns `true` if it was absent.
    pub fn insert(&mut self, id: AttrId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        debug_assert!(id.index() < self.arity, "attr {id} out of range {}", self.arity);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes an attribute; returns `true` if it was present.
    pub fn remove(&mut self, id: AttrId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, id: AttrId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// In-place union; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &AttrSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &AttrSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// The intersection as a new set.
    pub fn intersection(&self, other: &AttrSet) -> AttrSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Number of attributes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut word = *w;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(AttrId((wi * 64 + b) as u16))
                }
            })
        })
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<AttrId> for AttrSet {
    /// Builds a set sized to fit the largest id (arity = max id + 1).
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        let ids: Vec<AttrId> = iter.into_iter().collect();
        let arity = ids.iter().map(|a| a.index() + 1).max().unwrap_or(0);
        AttrSet::from_ids(arity, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u16]) -> Vec<AttrId> {
        v.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = AttrSet::empty(100);
        assert!(s.insert(AttrId(0)));
        assert!(s.insert(AttrId(64)));
        assert!(s.insert(AttrId(99)));
        assert!(!s.insert(AttrId(0)));
        assert!(s.contains(AttrId(64)));
        assert!(!s.contains(AttrId(63)));
        assert!(s.remove(AttrId(64)));
        assert!(!s.remove(AttrId(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_with_reports_a_change() {
        let a = AttrSet::from_ids(10, ids(&[1, 2]));
        let mut b = AttrSet::from_ids(10, ids(&[1, 2, 5]));
        assert!(!b.union_with(&a)); // no change
        let c = AttrSet::from_ids(10, ids(&[7]));
        assert!(b.union_with(&c));
        assert!(b.contains(AttrId(7)));
    }

    #[test]
    fn intersection() {
        let a = AttrSet::from_ids(10, ids(&[1, 2, 3]));
        let b = AttrSet::from_ids(10, ids(&[2, 3, 4]));
        let i = a.intersection(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), ids(&[2, 3]));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let s = AttrSet::from_ids(130, ids(&[0, 63, 64, 127, 129]));
        assert_eq!(s.iter().collect::<Vec<_>>(), ids(&[0, 63, 64, 127, 129]));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn full_and_empty() {
        let f = AttrSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(!f.is_empty());
        assert!(AttrSet::empty(70).is_empty());
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: AttrSet = ids(&[3, 9]).into_iter().collect();
        assert_eq!(s.arity(), 10);
        assert!(s.contains(AttrId(9)));
    }
}
