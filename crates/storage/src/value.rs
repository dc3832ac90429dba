//! Database values.
//!
//! The paper's reductions build instances whose constants are either plain
//! integers, the filler constant `⊥`, or *tagged* constants such as
//! `(c, x₁)` — a value concatenated with a variable name so that different
//! variables range over disjoint domains (Lemma 14, Examples 18/31/39).
//! [`Value`] covers all three shapes as a compact, copyable enum.

use std::fmt;

/// A single database constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// The filler constant `⊥` used by the lower-bound encodings.
    Bottom,
    /// A plain integer constant.
    Int(i64),
    /// A constant tagged with a variable identifier: the `(c, v)` pairs of
    /// the disjoint-domain encodings. `tag` is a caller-chosen namespace
    /// (typically a variable index).
    Tagged {
        /// The namespace tag (e.g. variable id).
        tag: u32,
        /// The underlying constant.
        val: i64,
    },
}

impl Value {
    /// Convenience constructor for tagged values.
    #[inline]
    pub fn tagged(tag: u32, val: i64) -> Value {
        Value::Tagged { tag, val }
    }

    /// The underlying integer of an [`Value::Int`] or [`Value::Tagged`];
    /// `None` for `⊥`.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Bottom => None,
            Value::Int(v) => Some(v),
            Value::Tagged { val, .. } => Some(val),
        }
    }

    /// Strips a tag, turning `Tagged { _, v }` into `Int(v)`. `Int` and
    /// `Bottom` are returned unchanged. This is the `τ` direction of the
    /// Lemma 14 exact reduction.
    #[inline]
    pub fn untag(self) -> Value {
        match self {
            Value::Tagged { val, .. } => Value::Int(val),
            other => other,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bottom => write!(f, "⊥"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Tagged { tag, val } => write!(f, "({val}#{tag})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_size_is_compact() {
        // Two words: keeps row storage cache-friendly.
        assert!(std::mem::size_of::<Value>() <= 16);
    }

    #[test]
    fn tuple_size_is_inline_bounded() {
        // Four inline values and a length: a reply buffer holds its
        // answers in place, not pointers to them.
        assert!(std::mem::size_of::<crate::Tuple>() <= 72);
    }

    #[test]
    fn ordering_and_equality() {
        assert_eq!(Value::Int(3), Value::from(3));
        assert_ne!(Value::Int(3), Value::tagged(0, 3));
        assert_ne!(Value::tagged(0, 3), Value::tagged(1, 3));
        assert!(Value::Bottom < Value::Int(i64::MIN));
    }

    #[test]
    fn untag_strips_only_tags() {
        assert_eq!(Value::tagged(7, 42).untag(), Value::Int(42));
        assert_eq!(Value::Int(42).untag(), Value::Int(42));
        assert_eq!(Value::Bottom.untag(), Value::Bottom);
    }

    #[test]
    fn as_int() {
        assert_eq!(Value::Bottom.as_int(), None);
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::tagged(1, 5).as_int(), Some(5));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Bottom.to_string(), "⊥");
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::tagged(3, 9).to_string(), "(9#3)");
    }
}
