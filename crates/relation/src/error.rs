//! Error type shared by all relational operations.

use std::fmt;

/// Errors raised by schema construction and relational operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// An attribute name was referenced that does not exist in the schema.
    UnknownAttribute {
        /// The missing attribute name.
        name: String,
        /// The schema (relation) name the lookup ran against.
        schema: String,
    },
    /// Two attributes with the same name were declared in one schema.
    DuplicateAttribute {
        /// The repeated attribute name.
        name: String,
    },
    /// A tuple had the wrong number of values for the schema.
    ArityMismatch {
        /// Number of attributes the schema defines.
        expected: usize,
        /// Number of values the tuple carried.
        got: usize,
    },
    /// A value's type does not match the attribute's declared type.
    TypeMismatch {
        /// Attribute whose type was violated.
        attr: String,
        /// Declared type, as a human-readable string.
        expected: &'static str,
        /// Offending value, rendered for the message.
        got: String,
    },
    /// Two relations were combined whose schemas are incompatible.
    SchemaMismatch {
        /// Explanation of the incompatibility.
        detail: String,
    },
    /// A schema declared a key over attributes that do not exist.
    InvalidKey {
        /// Explanation of the invalid key declaration.
        detail: String,
    },
    /// A fragmentation or replication layout was structurally invalid
    /// (zero sites, lossy predicate cover, out-of-range factor, …).
    InvalidPartition {
        /// Explanation of the invalid layout.
        detail: String,
    },
    /// A delta referenced a tuple id that is not present (or was named
    /// twice) in the relation it was applied to.
    UnknownTuple {
        /// The offending tuple id.
        tid: u64,
    },
    /// A delta inserted a tuple id that is already live in the
    /// relation (and not deleted by the same delta), or twice within
    /// one delta. Live tuple ids must stay unique — downstream indices
    /// key on them.
    DuplicateTuple {
        /// The offending tuple id.
        tid: u64,
    },
    /// A row carried the largest representable tuple id. A relation's id
    /// counter stays one past the largest id it holds, so that id can
    /// never be stored.
    TupleIdOutOfRange {
        /// The offending tuple id.
        tid: u64,
    },
    /// Rows carried more new values than an attribute's dictionary has
    /// room for: every code below the two sentinels is taken, or a Str
    /// dictionary's strings would pass the 4 GiB its offsets address. A
    /// delta is refused before any row of any site changes; a load or a
    /// push drops the rows it appended. Either way the dictionary keeps
    /// the values interned before the refusal.
    DictionaryExhausted {
        /// Attribute whose dictionary is full.
        attr: String,
        /// What ran out.
        what: &'static str,
    },
    /// A simulation cost model had a field that is not finite, a
    /// negative coefficient, or a zero rate it divides by.
    InvalidCostModel {
        /// The offending field and its value.
        detail: String,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownAttribute { name, schema } => {
                write!(f, "unknown attribute `{name}` in schema `{schema}`")
            }
            RelationError::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute `{name}`")
            }
            RelationError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: schema has {expected} attributes, tuple has {got}")
            }
            RelationError::TypeMismatch { attr, expected, got } => {
                write!(f, "type mismatch on `{attr}`: expected {expected}, got {got}")
            }
            RelationError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            RelationError::InvalidKey { detail } => write!(f, "invalid key: {detail}"),
            RelationError::InvalidPartition { detail } => {
                write!(f, "invalid partition: {detail}")
            }
            RelationError::UnknownTuple { tid } => {
                write!(f, "delta names tuple t{tid}, which is not (uniquely) present")
            }
            RelationError::DuplicateTuple { tid } => {
                write!(f, "delta inserts tuple t{tid}, which is already live")
            }
            RelationError::TupleIdOutOfRange { tid } => {
                write!(f, "tuple id t{tid} is the largest representable id and cannot be stored")
            }
            RelationError::DictionaryExhausted { attr, what } => {
                write!(f, "the dictionary of `{attr}` exhausted {what}")
            }
            RelationError::InvalidCostModel { detail } => write!(f, "invalid cost model: {detail}"),
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelationError::UnknownAttribute { name: "zip".into(), schema: "emp".into() };
        assert!(e.to_string().contains("zip"));
        assert!(e.to_string().contains("emp"));

        let e = RelationError::ArityMismatch { expected: 3, got: 2 };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('2'));

        let e = RelationError::TypeMismatch {
            attr: "cc".into(),
            expected: "Int",
            got: "Str(\"x\")".into(),
        };
        assert!(e.to_string().contains("cc"));

        let e = RelationError::TupleIdOutOfRange { tid: u64::MAX };
        assert!(e.to_string().contains(&u64::MAX.to_string()));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        let e = RelationError::DuplicateAttribute { name: "a".into() };
        takes_err(&e);
    }
}
