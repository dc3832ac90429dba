//! Hash indexes over relations, in CSR layout.
//!
//! The constant-delay enumeration phase relies on O(1) lookups of the rows
//! matching a separator binding; [`HashIndex`] groups the row ids of an
//! interned columnar relation ([`IdRel`]) by a key-column projection.
//!
//! # CSR layout
//!
//! Groups live in one flat arena instead of one `Vec` per key:
//!
//! ```text
//!              key map: InlineKey -> gid
//!                        |
//!                        v
//!   offsets:  [ 0 , 3 , 5 , 6 , ... , n_rows ]     (n_groups + 1)
//!               |   |
//!               v   v
//!   row_ids:  [ 2 7 9 | 0 4 | 1 | ... ]            (n_rows)
//!              '--g0--'
//! ```
//!
//! `get(key)` resolves the group id through the key map and returns
//! `&row_ids[offsets[g]..offsets[g+1]]` — a borrowed slice into the arena.
//! A build does two scans of the relation in a count-then-fill scheme
//! (scan 1 assigns group ids and counts; scan 2 scatters row ids through a
//! running-offset cursor), touching two dense output allocations instead of
//! one heap vector per distinct key. Row ids within a group stay in
//! ascending row order.
//!
//! # Batched probes
//!
//! [`HashIndex::probe_batch`] probes a flat run of keys (`stride` ids per
//! key) and yields `(probe_index, row_ids)` per key, memoizing consecutive
//! duplicate keys so a *sorted* run hashes each distinct key once. For
//! single-column keys the duplicate run is measured up front with an
//! unrolled 8-wide compare loop (`run_len_1`), so long runs skip even the
//! per-key compare.
//! Sortedness is an optimization, not a requirement: unsorted runs return
//! exactly the same groups, just without the dedup savings. The join inner
//! loops gather key runs per block and probe in bulk, which
//! keeps the key map and the arena hot in cache across a block instead of
//! alternating with unrelated work per row.
//!
//! # One build, many views
//!
//! Builds run on one core: a relation is hashed once per key-column set and
//! the result is cached by the evaluation context. The key map sits behind
//! an `Arc`, so [`HashIndex::retain_rows`] — the view the CDY engine keeps
//! after its liveness reducer — filters the arena with a scan and shares
//! the map instead of re-hashing, and [`HashIndex::merge_appended`] hashes
//! only a delta segment.
//!
//! Keys are [`InlineKey`]s — inline `[ValueId]` arrays, no per-row boxing
//! for keys up to 4 columns — and probes take **borrowed** `&[ValueId]`
//! slices, so the per-answer hot path never allocates.
//!
//! [`RowSet`] is the value-level row set kept for answer-boundary dedup
//! (e.g. the Cheater's Lemma compiler), where tuples are already decoded.

use crate::dictionary::ValueId;
use crate::hash::{fast_map_with_capacity, FastMap};
use crate::idrel::IdRel;
use crate::key::InlineKey;
use crate::relation::Relation;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Groups the rows of a relation by their projection onto `key_cols`, in
/// CSR layout (see the module docs).
///
/// Groups carry stable integer ids so that enumeration cursors can be stored
/// as plain `(group, position)` pairs without borrowing the index.
#[derive(Clone, Debug)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    /// Key → group id. Shared (not copied) by [`HashIndex::retain_rows`]
    /// views of one build.
    map: Arc<FastMap<InlineKey, u32>>,
    /// Group `g` occupies `row_ids[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    /// The flat row-id arena, grouped by key, ascending within a group.
    row_ids: Vec<u32>,
}

/// Map capacity heuristic: most indexed relations have far fewer distinct
/// keys than rows; start at a quarter and let at most two growth steps
/// absorb key-heavy inputs.
#[inline]
fn key_capacity_hint(rows: usize) -> usize {
    rows / 4 + 16
}

impl HashIndex {
    /// Builds an index over `rel` keyed on `key_cols` (positions): the
    /// one build, [`HashIndex::build_seq`].
    pub fn build(rel: &IdRel, key_cols: &[usize]) -> HashIndex {
        HashIndex::build_seq(rel, key_cols)
    }

    /// Merges the delta segment of `rel` (physical rows `old_rows..`) into
    /// this index. The key map is cloned as-is (cloning a hash map
    /// re-hashes nothing); only delta rows are hashed, so the merge is
    /// O(Δ + arena), never O(n · hash). Rows of `rel` that have been tombstoned since the
    /// index was built (including old rows) are dropped from the arena, so
    /// probes stay liveness-check-free. Groups whose rows all died keep
    /// their gid with an empty slice — [`HashIndex::contains_key`] and
    /// [`HashIndex::get`] treat them as absent.
    ///
    /// `self` must have been built over exactly the first `old_rows`
    /// physical rows of `rel` (with no tombstones at build time).
    pub fn merge_appended(&self, rel: &IdRel, old_rows: usize) -> HashIndex {
        debug_assert!(old_rows <= rel.len(), "index covers rows the rel lost");
        let stride = self.key_cols.len();
        let cols: Vec<&[ValueId]> = self.key_cols.iter().map(|&c| rel.col(c)).collect();
        let mut map = (*self.map).clone();
        let old_groups = self.n_keys();
        // Surviving members per old group, then delta adds per (possibly
        // fresh) group.
        let mut counts: Vec<u32> = Vec::with_capacity(old_groups + 16);
        for g in 0..old_groups {
            let members = &self.row_ids[self.offsets[g] as usize..self.offsets[g + 1] as usize];
            counts.push(members.iter().filter(|&&r| rel.is_live(r as usize)).count() as u32);
        }
        let mut delta_rows: Vec<(u32, u32)> = Vec::with_capacity(rel.len() - old_rows);
        let mut buf: Vec<ValueId> = Vec::with_capacity(stride);
        for r in old_rows..rel.len() {
            if !rel.is_live(r) {
                continue;
            }
            buf.clear();
            buf.extend(cols.iter().map(|c| c[r]));
            let next = counts.len() as u32;
            let gid = *map.entry(InlineKey::from_slice(&buf)).or_insert(next);
            if gid == next {
                counts.push(0);
            }
            counts[gid as usize] += 1;
            delta_rows.push((gid, r as u32));
        }
        // Prefix-sum the counts into offsets and reuse them as scatter
        // cursors (the `scatter_csr` scheme, split so old survivors land
        // before delta rows — both sides ascend, and every delta row id is
        // greater than every old one, so groups stay ascending).
        let mut offsets: Vec<u32> = Vec::with_capacity(counts.len() + 1);
        offsets.push(0);
        let mut acc = 0u32;
        for c in counts.iter_mut() {
            let start = acc;
            acc += *c;
            *c = start;
            offsets.push(acc);
        }
        let mut row_ids = vec![0u32; acc as usize];
        for g in 0..old_groups {
            let members = &self.row_ids[self.offsets[g] as usize..self.offsets[g + 1] as usize];
            for &r in members {
                if rel.is_live(r as usize) {
                    let cursor = &mut counts[g];
                    row_ids[*cursor as usize] = r;
                    *cursor += 1;
                }
            }
        }
        for (gid, r) in delta_rows {
            let cursor = &mut counts[gid as usize];
            row_ids[*cursor as usize] = r;
            *cursor += 1;
        }
        HashIndex {
            key_cols: self.key_cols.clone(),
            map: Arc::new(map),
            offsets,
            row_ids,
        }
    }

    /// The view of this index over only the rows `keep` marks (indexed by
    /// physical row id): the arena is filtered with one scan, group ids
    /// stay stable, and the key map is shared — nothing is re-hashed.
    /// Groups left without rows keep their gid with an empty slice, as
    /// after a tombstone merge.
    pub fn retain_rows(&self, keep: &[bool]) -> HashIndex {
        let mut offsets: Vec<u32> = Vec::with_capacity(self.offsets.len());
        let mut row_ids: Vec<u32> = Vec::with_capacity(self.row_ids.len());
        offsets.push(0);
        for w in self.offsets.windows(2) {
            let members = &self.row_ids[w[0] as usize..w[1] as usize];
            row_ids.extend(members.iter().filter(|&&r| keep[r as usize]));
            offsets.push(row_ids.len() as u32);
        }
        HashIndex {
            key_cols: self.key_cols.clone(),
            map: Arc::clone(&self.map),
            offsets,
            row_ids,
        }
    }

    /// The sequential count-then-fill CSR build: scan 1 resolves each live
    /// row's group id (one hash per row) and counts group sizes; scan 2
    /// scatters row ids into the flat arena through running-offset cursors.
    /// Tombstoned rows are skipped in scan 1 and never enter the arena, so
    /// probes pay no per-row liveness check. Churned base mirrors normally
    /// reach the index cache through [`HashIndex::merge_appended`]; a build
    /// over dead rows is the from-scratch fallback.
    pub fn build_seq(rel: &IdRel, key_cols: &[usize]) -> HashIndex {
        let n = rel.len();
        let cols: Vec<&[ValueId]> = key_cols.iter().map(|&c| rel.col(c)).collect();
        let mut map: FastMap<InlineKey, u32> =
            fast_map_with_capacity(key_capacity_hint(rel.live_len()));
        let mut row_gids: Vec<u32> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::new();
        let mut buf: Vec<ValueId> = Vec::with_capacity(key_cols.len());
        for i in 0..n {
            if !rel.is_live(i) {
                row_gids.push(DEAD);
                continue;
            }
            buf.clear();
            buf.extend(cols.iter().map(|c| c[i]));
            // Probe borrowed first: the key is only materialized (inline, no
            // heap for ≤ 4 columns) for the first row of each group. An
            // `entry` call would build and hash an owned key for every row,
            // which measured up to 2.5x slower on keys that repeat.
            let gid = match map.get(buf.as_slice()) {
                Some(&g) => g,
                None => {
                    let g = counts.len() as u32;
                    map.insert(InlineKey::from_slice(&buf), g);
                    counts.push(0);
                    g
                }
            };
            counts[gid as usize] += 1;
            row_gids.push(gid);
        }
        let (offsets, row_ids) = scatter_csr(&mut counts, &row_gids);
        HashIndex {
            key_cols: key_cols.to_vec(),
            map: Arc::new(map),
            offsets,
            row_ids,
        }
    }

    /// The key columns this index was built on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// The stable group id for `key`, if present. Borrowed key — no
    /// allocation.
    #[inline]
    pub fn gid_of(&self, key: &[ValueId]) -> Option<u32> {
        self.map.get(key).copied()
    }

    /// Every indexed row id, group by group (the whole arena).
    #[inline]
    pub fn rows(&self) -> &[u32] {
        &self.row_ids
    }

    /// The row ids of a group.
    #[inline]
    pub fn group(&self, gid: u32) -> &[u32] {
        let g = gid as usize;
        &self.row_ids[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Row ids whose key equals `key`. Empty slice when absent. Borrowed
    /// key — no allocation.
    #[inline]
    pub fn get(&self, key: &[ValueId]) -> &[u32] {
        match self.gid_of(key) {
            Some(g) => self.group(g),
            None => &[],
        }
    }

    /// Whether any row matches `key`. Borrowed key — no allocation. A
    /// group emptied by tombstone merges counts as absent.
    #[inline]
    pub fn contains_key(&self, key: &[ValueId]) -> bool {
        self.gid_of(key).is_some_and(|g| !self.group(g).is_empty())
    }

    /// Number of groups, including groups a tombstone merge has emptied
    /// (gids are stable across merges, so empty groups keep their slot).
    pub fn n_keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The largest group size — the worst-case fanout of the key. Read
    /// straight off the CSR offsets (one O(n_keys) scan, no row data).
    pub fn max_group_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// `(non-empty groups, largest group)` in one offsets scan — the stats
    /// harvest; excludes groups a tombstone merge emptied, so distinct
    /// counts stay exact on churned relations.
    pub fn group_stats(&self) -> (usize, usize) {
        let mut nonempty = 0usize;
        let mut max = 0usize;
        for w in self.offsets.windows(2) {
            let len = (w[1] - w[0]) as usize;
            nonempty += usize::from(len > 0);
            max = max.max(len);
        }
        (nonempty, max)
    }

    /// Probes a flat run of keys (`stride` ids per key; `keys.len()` must be
    /// a multiple of `stride`) and yields `(probe_index, row_ids)` for every
    /// key in run order, with an empty slice for absent keys.
    ///
    /// Consecutive equal keys are resolved without re-hashing (a slice
    /// compare replaces the hash + map probe), so sorted runs pay one lookup
    /// per distinct key. Sortedness is **not** required for correctness.
    /// `stride` must be non-zero and equal to the key width of the index;
    /// nullary-key indexes are probed with [`HashIndex::get`]`(&[])`.
    pub fn probe_batch<'k>(&self, keys: &'k [ValueId], stride: usize) -> ProbeBatch<'_, 'k> {
        // Chaos hook (inert outside `--cfg ucq_fault_inject`): one visit
        // per probe block, the injection site for per-block delays and
        // panics on the join path.
        crate::faults::on_probe();
        assert!(stride > 0, "probe_batch requires a non-empty key stride");
        assert_eq!(
            stride,
            self.key_cols.len(),
            "stride must match the index key width"
        );
        assert_eq!(keys.len() % stride, 0, "partial key in probe run");
        ProbeBatch {
            idx: self,
            keys,
            stride,
            pos: 0,
            run_end: 0,
            run_gid: None,
        }
    }

    /// Iterates over `(key, row ids)` groups.
    pub fn iter(&self) -> impl Iterator<Item = (&[ValueId], &[u32])> {
        self.map.iter().map(|(k, &g)| (k.as_slice(), self.group(g)))
    }
}

/// The group id [`HashIndex::build_seq`] records for a tombstoned row.
const DEAD: u32 = u32::MAX;

/// Turns per-group `counts` and per-row group ids into `(offsets, row_ids)`
/// by prefix-summing the counts (reused as scatter cursors) and scattering
/// row `i` into its group; [`DEAD`] rows are left out. Row ids stay
/// ascending within each group.
fn scatter_csr(counts: &mut [u32], row_gids: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut offsets: Vec<u32> = Vec::with_capacity(counts.len() + 1);
    offsets.push(0);
    let mut acc = 0u32;
    for c in counts.iter_mut() {
        let start = acc;
        acc += *c;
        *c = start;
        offsets.push(acc);
    }
    let mut row_ids = vec![0u32; acc as usize];
    for (i, &g) in row_gids.iter().enumerate() {
        if g == DEAD {
            continue;
        }
        let cursor = &mut counts[g as usize];
        row_ids[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    (offsets, row_ids)
}

/// Length of the prefix of `keys` equal to `key`, scanned in unrolled
/// chunks of 8 with a scalar tail — the stride-1 fast path of
/// [`HashIndex::probe_batch`]. The 8-wide all-equal check compiles to a
/// handful of vectorizable `u32` compares, so long duplicate runs (sorted
/// single-column key gathers) cost a fraction of a compare per key.
#[inline]
fn run_len_1(keys: &[ValueId], key: ValueId) -> usize {
    let mut n = 0;
    for chunk in keys.chunks_exact(8) {
        if chunk.iter().all(|&k| k == key) {
            n += 8;
        } else {
            break;
        }
    }
    while n < keys.len() && keys[n] == key {
        n += 1;
    }
    n
}

/// The iterator returned by [`HashIndex::probe_batch`].
pub struct ProbeBatch<'a, 'k> {
    idx: &'a HashIndex,
    keys: &'k [ValueId],
    stride: usize,
    pos: usize,
    /// Probes before `run_end` share the memoized `run_gid`: when a key is
    /// resolved, the run of equal keys following it is measured up front
    /// (chunked compares for stride 1, pairwise slice compares otherwise),
    /// so duplicates skip both the hash and the per-call key compare.
    run_end: usize,
    run_gid: Option<u32>,
}

impl<'a> Iterator for ProbeBatch<'a, '_> {
    type Item = (usize, &'a [u32]);

    #[inline]
    fn next(&mut self) -> Option<(usize, &'a [u32])> {
        let start = self.pos * self.stride;
        if start >= self.keys.len() {
            return None;
        }
        if self.pos >= self.run_end {
            let key = &self.keys[start..start + self.stride];
            self.run_gid = self.idx.gid_of(key);
            let rest = &self.keys[start + self.stride..];
            self.run_end = self.pos
                + 1
                + if self.stride == 1 {
                    run_len_1(rest, key[0])
                } else {
                    rest.chunks_exact(self.stride)
                        .take_while(|c| *c == key)
                        .count()
                };
        }
        let i = self.pos;
        self.pos += 1;
        Some((i, self.run_gid.map_or(&[], |g| self.idx.group(g))))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.keys.len() / self.stride - self.pos;
        (rest, Some(rest))
    }
}

/// A set of full (decoded) value rows for O(1) membership tests at the
/// answer boundary.
#[derive(Clone, Debug, Default)]
pub struct RowSet {
    set: HashSet<Box<[Value]>>,
}

impl RowSet {
    /// Builds a set of all rows of `rel`.
    pub fn build(rel: &Relation) -> RowSet {
        let mut set = HashSet::with_capacity(rel.len());
        set.extend(rel.iter_rows().map(Box::<[Value]>::from));
        RowSet { set }
    }

    /// Builds a set of the projections of all rows of `rel` onto `cols`.
    pub fn build_projected(rel: &Relation, cols: &[usize]) -> RowSet {
        let mut set = HashSet::with_capacity(rel.len());
        let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
        for row in rel.iter_rows() {
            buf.clear();
            buf.extend(cols.iter().map(|&c| row[c]));
            set.insert(buf.as_slice().into());
        }
        RowSet { set }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, row: &[Value]) -> bool {
        self.set.contains(row)
    }

    /// Inserts a row; returns whether it was new.
    pub fn insert(&mut self, row: &[Value]) -> bool {
        self.set.insert(row.into())
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Dictionary;

    fn iv(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    fn interned_pairs(pairs: &[(i64, i64)]) -> (IdRel, Dictionary) {
        let mut dict = Dictionary::new();
        let rel = Relation::from_pairs(pairs.iter().copied());
        (IdRel::from_relation(&rel, &mut dict), dict)
    }

    /// A pseudo-random many-row relation with duplicate-heavy keys.
    fn synthetic_rel(rows: usize, domain: u32) -> IdRel {
        let mut rel = IdRel::new(2);
        let mut x = 0x2545_f491u32;
        for _ in 0..rows {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            rel.push_row(&[ValueId(x % domain), ValueId((x >> 8) % domain)]);
        }
        rel
    }

    #[test]
    fn index_groups_rows() {
        let (r, dict) = interned_pairs(&[(1, 10), (1, 20), (2, 30)]);
        let idx = HashIndex::build(&r, &[0]);
        let one = dict.lookup(Value::Int(1)).unwrap();
        let two = dict.lookup(Value::Int(2)).unwrap();
        assert_eq!(idx.get(&[one]), &[0, 1]);
        assert_eq!(idx.get(&[two]), &[2]);
        assert_eq!(idx.get(&[ValueId(999)]), &[] as &[u32]);
        assert_eq!(idx.n_keys(), 2);
        assert!(idx.contains_key(&[one]));
    }

    #[test]
    fn index_on_empty_key_groups_everything() {
        let (r, _) = interned_pairs(&[(1, 10), (2, 20)]);
        let idx = HashIndex::build(&r, &[]);
        assert_eq!(idx.get(&[]), &[0, 1]);
    }

    #[test]
    fn index_on_second_column() {
        let (r, dict) = interned_pairs(&[(1, 10), (2, 10)]);
        let idx = HashIndex::build(&r, &[1]);
        let ten = dict.lookup(Value::Int(10)).unwrap();
        assert_eq!(idx.get(&[ten]), &[0, 1]);
    }

    #[test]
    fn max_group_len_reads_offsets() {
        let (r, _) = interned_pairs(&[(1, 10), (1, 20), (1, 30), (2, 40)]);
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.max_group_len(), 3);
        let empty = HashIndex::build(&IdRel::new(2), &[0]);
        assert_eq!(empty.max_group_len(), 0);
    }

    #[test]
    fn iter_covers_all_groups() {
        let (r, _) = interned_pairs(&[(1, 10), (1, 20), (2, 30)]);
        let idx = HashIndex::build(&r, &[0]);
        let total: usize = idx.iter().map(|(_, rows)| rows.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn probe_batch_matches_repeated_get_on_sorted_run() {
        let rel = synthetic_rel(1_000, 17);
        let idx = HashIndex::build_seq(&rel, &[0]);
        // A sorted run with duplicates and misses.
        let mut keys: Vec<ValueId> = (0..40).map(|v| ValueId(v / 2)).collect();
        keys.sort();
        let batched: Vec<(usize, Vec<u32>)> = idx
            .probe_batch(&keys, 1)
            .map(|(i, rows)| (i, rows.to_vec()))
            .collect();
        assert_eq!(batched.len(), keys.len());
        for (i, rows) in batched {
            assert_eq!(rows.as_slice(), idx.get(&keys[i..=i]), "probe {i}");
        }
    }

    #[test]
    fn probe_batch_matches_repeated_get_on_unsorted_run() {
        let rel = synthetic_rel(1_000, 17);
        let idx = HashIndex::build_seq(&rel, &[0, 1]);
        let mut keys: Vec<ValueId> = Vec::new();
        let mut x = 7u32;
        for _ in 0..64 {
            x = x.wrapping_mul(2654435761).wrapping_add(1);
            keys.push(ValueId(x % 17));
            keys.push(ValueId((x >> 5) % 17));
        }
        for (i, rows) in idx.probe_batch(&keys, 2) {
            assert_eq!(rows, idx.get(&keys[i * 2..i * 2 + 2]));
        }
    }

    #[test]
    fn stride1_run_fast_path_matches_get() {
        // Runs crossing the 8-wide chunk boundary: lengths 1, 7, 8, 9, 17,
        // 64, including absent keys, exercise both the chunked loop and the
        // scalar tail.
        let rel = synthetic_rel(1_000, 17);
        let idx = HashIndex::build_seq(&rel, &[0]);
        let mut keys: Vec<ValueId> = Vec::new();
        for (v, run) in [(0u32, 1usize), (1, 7), (2, 8), (3, 9), (99, 17), (4, 64)] {
            keys.extend(std::iter::repeat_n(ValueId(v), run));
        }
        let mut seen = 0;
        for (i, rows) in idx.probe_batch(&keys, 1) {
            assert_eq!(rows, idx.get(&keys[i..=i]), "probe {i}");
            seen += 1;
        }
        assert_eq!(seen, keys.len());
        assert_eq!(run_len_1(&keys, ValueId(0)), 1);
        assert_eq!(run_len_1(&keys[1..], ValueId(1)), 7);
        assert_eq!(run_len_1(&keys[16..], ValueId(3)), 9);
        assert_eq!(run_len_1(&[], ValueId(3)), 0);
    }

    /// Every key present in `a` resolves to the same group in `b` and vice
    /// versa — ignoring empty groups (a tombstone merge keeps their gids).
    fn assert_same_live_groups(a: &HashIndex, b: &HashIndex) {
        for (key, rows) in a.iter() {
            assert_eq!(b.get(key), rows, "group mismatch for {key:?}");
        }
        for (key, rows) in b.iter() {
            assert_eq!(a.get(key), rows, "group mismatch for {key:?}");
        }
    }

    /// Appends `extra` synthetic rows and tombstones every row whose first
    /// key id is divisible by `kill_mod` — the churn shape the merge and
    /// live-build paths must agree on.
    fn churned_rel(base_rows: usize, extra: usize, kill_mod: u32) -> (IdRel, usize) {
        let mut rel = synthetic_rel(base_rows + extra, 23);
        if kill_mod > 0 {
            rel.mark_deleted_where(|row| row[0].0 % kill_mod == 0);
        }
        (rel, base_rows)
    }

    #[test]
    fn merge_appended_matches_fresh_live_build() {
        for (extra, kill_mod) in [(50usize, 0u32), (50, 3), (0, 3), (7, 1)] {
            let (rel, old_rows) = churned_rel(200, extra, kill_mod);
            // The index predates the churn: build it over the base prefix
            // (synthetic_rel is deterministic, so the prefix matches).
            let base = synthetic_rel(200, 23);
            for key_cols in [&[0usize][..], &[1], &[0, 1]] {
                let idx = HashIndex::build_seq(&base, key_cols);
                let merged = idx.merge_appended(&rel, old_rows);
                let fresh = HashIndex::build_seq(&rel, key_cols);
                assert_same_live_groups(&merged, &fresh);
                for (_, rows) in merged.iter() {
                    assert!(rows.windows(2).all(|w| w[0] < w[1]), "ascending groups");
                }
            }
        }
    }

    #[test]
    fn retain_rows_shares_the_key_map_and_filters_the_arena() {
        let rel = synthetic_rel(500, 23);
        let idx = HashIndex::build_seq(&rel, &[0]);
        let keep: Vec<bool> = (0..rel.len())
            .map(|r| !rel.at(r, 1).0.is_multiple_of(3))
            .collect();
        let view = idx.retain_rows(&keep);
        assert!(Arc::ptr_eq(&idx.map, &view.map), "no re-hash, no copy");
        assert_eq!(view.n_keys(), idx.n_keys(), "gids stay stable");
        for (key, rows) in idx.iter() {
            let want: Vec<u32> = rows.iter().copied().filter(|&r| keep[r as usize]).collect();
            assert_eq!(view.get(key), want.as_slice());
            assert_eq!(view.contains_key(key), !want.is_empty());
        }
        assert_eq!(view.rows().len(), keep.iter().filter(|&&k| k).count());
    }

    #[test]
    fn emptied_groups_read_as_absent() {
        let (r, dict) = interned_pairs(&[(1, 10), (1, 20), (2, 30)]);
        let idx = HashIndex::build_seq(&r, &[0]);
        let one = dict.lookup(Value::Int(1)).unwrap();
        let two = dict.lookup(Value::Int(2)).unwrap();
        let mut churned = r.clone();
        churned.mark_deleted_where(|row| row[0] == one);
        let merged = idx.merge_appended(&churned, churned.len());
        assert!(!merged.contains_key(&[one]), "emptied group is absent");
        assert_eq!(merged.get(&[one]), &[] as &[u32]);
        assert!(merged.contains_key(&[two]));
        assert_eq!(merged.get(&[two]), &[2]);
    }

    #[test]
    fn build_routes_tombstoned_rels_to_live_build() {
        let (mut r, dict) = interned_pairs(&[(1, 10), (2, 20), (3, 30)]);
        let two = dict.lookup(Value::Int(2)).unwrap();
        r.mark_deleted_where(|row| row[0] == two);
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.n_keys(), 2, "dead rows never enter the index");
        assert!(!idx.contains_key(&[two]));
        // Nullary key: the everything-group holds only live rows.
        let all = HashIndex::build(&r, &[]);
        assert_eq!(all.get(&[]), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn probe_batch_rejects_zero_stride() {
        let (r, _) = interned_pairs(&[(1, 10)]);
        let idx = HashIndex::build(&r, &[0]);
        let _ = idx.probe_batch(&[], 0);
    }

    #[test]
    fn rowset_membership() {
        let r = Relation::from_pairs([(1, 2), (3, 4)]);
        let s = RowSet::build(&r);
        assert!(s.contains(&iv(&[1, 2])));
        assert!(!s.contains(&iv(&[2, 1])));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn rowset_projected() {
        let r = Relation::from_pairs([(1, 2), (1, 3)]);
        let s = RowSet::build_projected(&r, &[0]);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&iv(&[1])));
    }

    #[test]
    fn rowset_insert_reports_novelty() {
        let mut s = RowSet::default();
        assert!(s.insert(&iv(&[1])));
        assert!(!s.insert(&iv(&[1])));
        assert!(!s.is_empty());
    }
}
