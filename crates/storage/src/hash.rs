//! The workspace hash function for id-level keys.
//!
//! Every hot map and set in the execution layer — the [`Dictionary`]
//! interner, [`HashIndex`] key maps, [`IdSet`] membership sets, answer
//! dedup — is keyed by short data: a [`ValueId`], a `[ValueId]` separator
//! projection, or a compact [`Value`]. The standard library's default
//! SipHash-1-3 is designed to resist hash-flooding from untrusted keys,
//! which costs ~2x-4x per lookup on 4-16 byte keys. The id-level maps
//! never hash attacker-controlled data (ids are dense dictionary indexes
//! the session itself assigned), so they drop that resistance outright
//! ([`FastMap`]/[`FastSet`]). Maps keyed by **raw values** — the
//! dictionary interner and the worker-local interning maps — do see
//! untrusted input; they use [`SeededFastMap`], the same hash mixed with
//! a per-process random seed, so collision sets cannot be precomputed
//! offline.
//!
//! [`FxHasher`] is the multiply-rotate scheme popularized by the rustc
//! `FxHashMap`: `state = (state.rotl(5) ^ word) * K` per 8-byte word, and
//! `finish` rotates the state left by 26, as rustc-hash 2 does. Two
//! properties matter here:
//!
//! * the low bits of a product depend only on the low bits of its factors,
//!   so without the final rotation hashbrown's bucket index (the low bits)
//!   would see only the low half of a word — a packed two-id key
//!   `(hi << 32) | lo` would bucket by `lo` alone, and rows such as
//!   `(k, k mod 7)` would share a handful of probe chains. The rotation
//!   brings the well-mixed middle bits of the product down instead;
//! * it is deterministic (no per-map random state), which keeps index
//!   builds reproducible across runs and across worker threads.
//!
//! [`FastMap`]/[`FastSet`] are the drop-in aliases used everywhere on the
//! id layer.
//!
//! [`Dictionary`]: crate::Dictionary
//! [`HashIndex`]: crate::HashIndex
//! [`IdSet`]: crate::IdSet
//! [`Value`]: crate::Value
//! [`ValueId`]: crate::ValueId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// Multiplier: a 64-bit odd constant with well-mixed bits (the fractional
/// part of the golden ratio, as used by Fibonacci hashing).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast, deterministic hasher for short id-level keys. See the module
/// docs for why this is safe to use on the execution layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the tail length in so "ab" | "c" != "a" | "bc".
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.add(n as u8 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }
}

/// The deterministic `BuildHasher` for [`FastMap`]/[`FastSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — the default map of the execution
/// layer.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`] — the default set of the execution
/// layer.
pub type FastSet<T> = HashSet<T, FxBuildHasher>;

/// A [`FastMap`] preallocated for `cap` entries.
#[inline]
pub fn fast_map_with_capacity<Key, V>(cap: usize) -> FastMap<Key, V> {
    FastMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// A [`FastSet`] preallocated for `cap` entries.
#[inline]
pub fn fast_set_with_capacity<T>(cap: usize) -> FastSet<T> {
    FastSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// The standalone hash of one value under [`FxHasher`] — used to assign
/// rows to shards in parallel index builds, where the shard split must
/// agree with the map's own hashing.
#[inline]
pub fn fx_hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = FxHasher::default();
    t.hash(&mut h);
    h.finish()
}

/// The per-process random seed for maps that hash untrusted input.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        // One SipHash keying is plenty of entropy, paid once per process.
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
    })
}

/// The `BuildHasher` for maps keyed by **raw, untrusted** data (decoded
/// [`Value`](crate::Value)s at the ingestion boundary): [`FxHasher`] speed,
/// but the initial state carries a per-process random seed so an adversary
/// cannot precompute colliding key sets against the published constant.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeededFxBuildHasher;

impl BuildHasher for SeededFxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher {
            state: process_seed(),
        }
    }
}

/// A `HashMap` for raw-value keys: Fx speed with a per-process seed.
pub type SeededFastMap<K, V> = HashMap<K, V, SeededFxBuildHasher>;

/// A [`SeededFastMap`] preallocated for `cap` entries.
#[inline]
pub fn seeded_map_with_capacity<Key, V>(cap: usize) -> SeededFastMap<Key, V> {
    SeededFastMap::with_capacity_and_hasher(cap, SeededFxBuildHasher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::ValueId;

    #[test]
    fn deterministic_across_hasher_instances() {
        let key: &[ValueId] = &[ValueId(3), ValueId(9)];
        assert_eq!(fx_hash_of(key), fx_hash_of(key));
    }

    #[test]
    fn slice_hash_agrees_with_inline_key() {
        use crate::key::InlineKey;
        for n in 0..7u32 {
            let ids: Vec<ValueId> = (0..n).map(ValueId).collect();
            let k = InlineKey::from_slice(&ids);
            assert_eq!(fx_hash_of(&k), fx_hash_of(ids.as_slice()));
        }
    }

    #[test]
    fn borrowed_probe_roundtrip() {
        use crate::key::InlineKey;
        let mut map: FastMap<InlineKey, u32> = FastMap::default();
        let ids = [ValueId(1), ValueId(2)];
        map.insert(InlineKey::from_slice(&ids), 7);
        assert_eq!(map.get(&ids[..]), Some(&7));
        assert_eq!(map.get(&[ValueId(9)][..]), None);
    }

    /// Distinct values the low 12 bits of `finish` take over `keys` — the
    /// bucket index of a 4096-bucket hashbrown table.
    fn low_bits_spread<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let mask = (1u64 << 12) - 1;
        let buckets: FastSet<u64> = keys.map(|k| fx_hash_of(&k) & mask).collect();
        buckets.len()
    }

    #[test]
    fn dense_ids_spread_over_low_bits() {
        // Dictionary-dense keys must not cluster in hashbrown buckets.
        let dense = (0..1u32 << 12).map(ValueId);
        assert!(
            low_bits_spread(dense) > 1 << 11,
            "low bits must not collapse"
        );
    }

    #[test]
    fn packed_pairs_spread_over_low_bits_when_only_the_high_id_varies() {
        // Rows `(k, k mod 7)` packed as `IdSet` packs two ids: the low id
        // takes 7 values, so the bucket bits must come from the high one.
        let packed = (0..1u64 << 12).map(|k| (k << 32) | (k % 7));
        assert!(low_bits_spread(packed) >= 1 << 11, "probe chains collapse");
    }

    #[test]
    fn seeded_hasher_differs_from_unseeded_but_is_stable_in_process() {
        use crate::value::Value;
        let seeded = SeededFxBuildHasher;
        let h1 = seeded.hash_one(Value::Int(42));
        let h2 = seeded.hash_one(Value::Int(42));
        assert_eq!(h1, h2, "stable within a process");
        let mut map: SeededFastMap<Value, u32> = seeded_map_with_capacity(4);
        map.insert(Value::Int(42), 1);
        assert_eq!(map.get(&Value::Int(42)), Some(&1));
    }

    #[test]
    fn unaligned_tails_do_not_collide_with_shifted_splits() {
        let mut h1 = FxHasher::default();
        h1.write(b"ab");
        h1.write(b"c");
        let mut h2 = FxHasher::default();
        h2.write(b"a");
        h2.write(b"bc");
        assert_ne!(h1.finish(), h2.finish());
    }
}
