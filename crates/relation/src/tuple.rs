//! Tuples: value rows with stable identifiers.

use crate::schema::AttrId;
use crate::value::Value;
use std::fmt;

/// A stable identifier for a tuple of the *original* (unfragmented)
/// relation.
///
/// Fragmentation preserves tuple ids, so a tuple shipped between sites can
/// always be traced back, and violation sets computed by different
/// algorithms can be compared for equality in tests. This mirrors the
/// paper's assumption of "system assigned tuple IDs" (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A tuple: an id plus one [`Value`] per schema attribute.
///
/// This is the owned value row that enters a [`Relation`](crate::Relation)
/// from outside (`push_tuple`, `from_tuples`, delta inserts) and that
/// decoding one returns (`iter`, `row`); relations do not store tuples.
/// Values are held in a boxed slice (two words, no spare capacity), and
/// `Value` clones are O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// Stable id of the tuple in the original relation.
    pub tid: TupleId,
    values: Box<[Value]>,
}

impl Tuple {
    /// Creates a tuple from an id and values.
    pub fn new(tid: TupleId, values: Vec<Value>) -> Self {
        Tuple { tid, values: values.into_boxed_slice() }
    }

    /// The value of attribute `A`: `t[A]`.
    #[inline]
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// All values in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values (matches the schema arity).
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The projection `t[X]` onto an attribute list, cloning values
    /// (cheaply — see [`Value`]) into a fresh vector.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.values[a.index()].clone()).collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.tid)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vals;

    fn t(id: u64, vs: Vec<Value>) -> Tuple {
        Tuple::new(TupleId(id), vs)
    }

    #[test]
    fn get_and_project() {
        let tup = t(1, vals![44, "EDI", "EH2"]);
        assert_eq!(tup.get(AttrId(0)), &Value::Int(44));
        assert_eq!(tup.project(&[AttrId(2), AttrId(0)]), vals!["EH2", 44]);
    }

    #[test]
    fn tuple_identity_vs_content() {
        let a = t(1, vals![1]);
        let b = t(2, vals![1]);
        assert_ne!(a, b); // same content, different tid
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn display() {
        let tup = t(7, vals![1, "a"]);
        assert_eq!(tup.to_string(), "t7(1, a)");
    }
}
