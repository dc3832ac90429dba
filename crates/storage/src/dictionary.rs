//! Dictionary interning: dense `u32` ids for [`Value`]s.
//!
//! The enumeration hot paths compare, hash, and shuffle values constantly;
//! doing that on 16-byte [`Value`] enums wastes cache and forces every hash
//! key to cover 16 bytes per column. [`Dictionary`] maps each distinct value
//! to a dense [`ValueId`] (4 bytes) exactly once — after preprocessing,
//! joins, semijoins, index probes and dedup all run on ids, and values are
//! only decoded back at the answer boundary.
//!
//! Id 0 is always `⊥` ([`Value::Bottom`]), so `ValueId::BOTTOM` doubles as
//! the cheap "unbound" filler in enumeration bindings.

use crate::hash::SeededFastMap;
use crate::value::Value;

/// A dense interned value id. Ids are only meaningful relative to the
/// [`Dictionary`] (equivalently, the [`EvalContext`](crate::EvalContext))
/// that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id of [`Value::Bottom`] in every dictionary.
    pub const BOTTOM: ValueId = ValueId(0);

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only value interner.
///
/// `intern` is amortized O(1); `value` (decode) is an array lookup. A
/// dictionary never forgets: ids stay valid for its whole lifetime, which is
/// what lets [`HashIndex`](crate::HashIndex) groups, cached columnar
/// relations and enumeration cursors reference values as plain `u32`s.
#[derive(Clone, Debug)]
pub struct Dictionary {
    map: SeededFastMap<Value, ValueId>,
    values: Vec<Value>,
}

impl Dictionary {
    /// A dictionary holding only `⊥` (at [`ValueId::BOTTOM`]).
    pub fn new() -> Dictionary {
        let mut d = Dictionary {
            map: SeededFastMap::default(),
            values: Vec::new(),
        };
        let bottom = d.intern(Value::Bottom);
        debug_assert_eq!(bottom, ValueId::BOTTOM);
        d
    }

    /// The id for `v`, allocating one if `v` is new.
    #[inline]
    pub fn intern(&mut self, v: Value) -> ValueId {
        let values = &mut self.values;
        *self.map.entry(v).or_insert_with(|| {
            let id = ValueId(u32::try_from(values.len()).expect("dictionary overflow"));
            values.push(v);
            id
        })
    }

    /// The id for `v` if it has been interned, without allocating. The
    /// constant-time membership tests use this: a value the dictionary has
    /// never seen cannot occur in any interned relation.
    #[inline]
    pub fn lookup(&self, v: Value) -> Option<ValueId> {
        self.map.get(&v).copied()
    }

    /// Decodes an id back to its value.
    #[inline]
    pub fn value(&self, id: ValueId) -> Value {
        self.values[id.index()]
    }

    /// Number of distinct interned values (including `⊥`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether only `⊥` is interned.
    pub fn is_empty(&self) -> bool {
        self.values.len() <= 1
    }
}

impl Default for Dictionary {
    fn default() -> Dictionary {
        Dictionary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_is_id_zero() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(Value::Bottom), Some(ValueId::BOTTOM));
        assert_eq!(d.value(ValueId::BOTTOM), Value::Bottom);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Value::Int(7));
        let b = d.intern(Value::Int(7));
        assert_eq!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        let mut d = Dictionary::new();
        let ids = [
            d.intern(Value::Int(1)),
            d.intern(Value::tagged(0, 1)),
            d.intern(Value::tagged(1, 1)),
            d.intern(Value::Bottom),
        ];
        assert_eq!(ids[3], ValueId::BOTTOM);
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn roundtrip() {
        let mut d = Dictionary::new();
        for v in [Value::Int(-3), Value::tagged(9, 4), Value::Bottom] {
            let id = d.intern(v);
            assert_eq!(d.value(id), v);
        }
    }

    #[test]
    fn lookup_does_not_allocate_ids() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(Value::Int(5)), None);
        assert!(d.is_empty());
    }
}
