//! Owned answer tuples.
//!
//! A [`Tuple`] keeps up to [`InlineKey::INLINE`] values in place and
//! spills only wider tuples to the heap, so decoding an answer of the
//! usual arity (1–4 head variables) allocates nothing: a reply of `n`
//! answers is one `Vec<Tuple>` buffer, not `n + 1` allocations for the
//! client thread to free. Equality, ordering, hashing and `Debug` are
//! those of the [`Value`] slice, exactly as when the values were boxed.

use crate::dictionary::ValueId;
use crate::key::InlineKey;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An owned tuple of values — the unit of enumeration output.
///
/// Relations store rows in flat arrays ([`crate::relation::Relation`]);
/// `Tuple` is used at API boundaries: enumerator items, dedup keys, index
/// keys.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    /// Up to [`InlineKey::INLINE`] values; positions `len..` are padding.
    Inline {
        len: u8,
        vals: [Value; InlineKey::INLINE],
    },
    /// Tuples wider than [`InlineKey::INLINE`].
    Spilled(Box<[Value]>),
}

impl Tuple {
    /// Creates a tuple of `len` values, the `i`-th being `f(i)`.
    /// Allocation-free when `len <= InlineKey::INLINE`.
    #[inline]
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> Value) -> Tuple {
        if len <= InlineKey::INLINE {
            let mut vals = [Value::Bottom; InlineKey::INLINE];
            for (i, slot) in vals[..len].iter_mut().enumerate() {
                *slot = f(i);
            }
            Tuple(Repr::Inline {
                len: len as u8,
                vals,
            })
        } else {
            Tuple(Repr::Spilled((0..len).map(f).collect()))
        }
    }

    /// Creates a tuple from a row slice.
    #[inline]
    pub fn from_row(row: &[Value]) -> Tuple {
        Tuple::from_fn(row.len(), |i| row[i])
    }

    /// Creates an empty (arity-0) tuple — the single answer of a Boolean
    /// query.
    #[inline]
    pub fn empty() -> Tuple {
        Tuple::from_fn(0, |_| unreachable!())
    }

    /// The tuple's arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// The values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Spilled(vals) => vals,
        }
    }

    /// Projects onto the given column positions.
    #[inline]
    pub fn project(&self, cols: &[usize]) -> Tuple {
        let vals = self.values();
        Tuple::from_fn(cols.len(), |i| vals[cols[i]])
    }

    /// Applies [`Value::untag`] to every component (the `τ` translation of
    /// the Lemma 14 reduction).
    #[inline]
    pub fn untag(&self) -> Tuple {
        let vals = self.values();
        Tuple::from_fn(vals.len(), |i| vals[i].untag())
    }
}

/// The one decode loop behind every context's `decode_rows_into`: appends
/// `rows` tuples of `width` values to `out`, decoding the row-major `ids`
/// through `decode`. Nullary rows carry no ids, so `rows` is the count.
pub(crate) fn extend_decoded(
    out: &mut Vec<Tuple>,
    width: usize,
    rows: usize,
    ids: &[ValueId],
    mut decode: impl FnMut(ValueId) -> Value,
) {
    debug_assert_eq!(ids.len(), width * rows, "partial row in flat table");
    if width == 0 {
        out.resize(out.len() + rows, Tuple::empty());
        return;
    }
    out.extend(
        ids.chunks_exact(width)
            .map(|row| Tuple::from_fn(width, |i| decode(row[i]))),
    );
}

/// Decodes one answer from an exact-size run of ids.
pub(crate) fn decode_exact<I>(ids: I, mut decode: impl FnMut(ValueId) -> Value) -> Tuple
where
    I: IntoIterator<Item = ValueId>,
    I::IntoIter: ExactSizeIterator,
{
    let mut ids = ids.into_iter();
    Tuple::from_fn(ids.len(), |_| {
        decode(ids.next().expect("exact-size iterator"))
    })
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tuple").field(&self.values()).finish()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::from_row(&v)
    }
}

impl From<&[i64]> for Tuple {
    fn from(v: &[i64]) -> Tuple {
        Tuple::from_fn(v.len(), |i| Value::Int(v[i]))
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values()[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
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
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn construction_and_arity() {
        let t: Tuple = vec![Value::Int(1), Value::Bottom].into();
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(Tuple::empty().arity(), 0);
    }

    #[test]
    fn from_ints() {
        let t: Tuple = (&[1i64, 2, 3][..]).into();
        assert_eq!(t.values(), &[Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn projection() {
        let t: Tuple = (&[10i64, 20, 30][..]).into();
        assert_eq!(t.project(&[2, 0]), (&[30i64, 10][..]).into());
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn untag_is_componentwise() {
        let t: Tuple = vec![Value::tagged(1, 5), Value::Int(6), Value::Bottom].into();
        assert_eq!(
            t.untag(),
            vec![Value::Int(5), Value::Int(6), Value::Bottom].into()
        );
    }

    #[test]
    fn display() {
        let t: Tuple = (&[1i64, 2][..]).into();
        assert_eq!(t.to_string(), "(1, 2)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Rows of every arity on both sides of the inline/spill boundary,
    /// with values chosen so that ordering is decided at every position.
    fn rows() -> Vec<Vec<Value>> {
        let vals = [
            Value::Bottom,
            Value::Int(-1),
            Value::Int(2),
            Value::tagged(0, 2),
        ];
        let mut rows = Vec::new();
        for arity in 0..=6 {
            for seed in 0..vals.len() {
                rows.push((0..arity).map(|i| vals[(seed + i) % vals.len()]).collect());
            }
        }
        rows
    }

    #[test]
    fn eq_ord_and_hash_are_the_slices_across_the_spill_boundary() {
        let rows = rows();
        for a in &rows {
            let ta = Tuple::from_row(a);
            assert_eq!(ta.values(), a.as_slice());
            assert_eq!(hash_of(&ta), hash_of(a.as_slice()), "hash of {a:?}");
            for b in &rows {
                let tb = Tuple::from_row(b);
                assert_eq!(ta == tb, a == b, "{a:?} == {b:?}");
                assert_eq!(
                    ta.cmp(&tb),
                    a.as_slice().cmp(b.as_slice()),
                    "{a:?} cmp {b:?}"
                );
                assert_eq!(ta.partial_cmp(&tb), a.partial_cmp(b));
            }
        }
    }

    #[test]
    fn debug_prints_what_the_boxed_tuple_printed() {
        assert_eq!(
            format!("{:?}", Tuple::from(&[1i64, 2][..])),
            "Tuple([Int(1), Int(2)])"
        );
        assert_eq!(format!("{:?}", Tuple::empty()), "Tuple([])");
        let wide = Tuple::from(&[1i64, 2, 3, 4, 5][..]);
        assert_eq!(
            format!("{wide:?}"),
            "Tuple([Int(1), Int(2), Int(3), Int(4), Int(5)])"
        );
        let tagged = Tuple::from_row(&[Value::tagged(3, 9), Value::Bottom]);
        assert_eq!(
            format!("{tagged:?}"),
            "Tuple([Tagged { tag: 3, val: 9 }, Bottom])"
        );
    }
}
