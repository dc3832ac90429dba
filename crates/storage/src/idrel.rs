//! Columnar interned relations.
//!
//! [`IdRel`] is the execution-side mirror of [`Relation`]: one dense
//! `Vec<ValueId>` per column. All join-time work (normalization, semijoins,
//! index builds, enumeration cursors) runs on this layout — 4-byte ids,
//! column slices directly addressable via [`IdRel::col`] — while the
//! row-major [`Relation`] stays the ingestion/API format.

use crate::dictionary::{Dictionary, ValueId};
use crate::hash::{fast_set_with_capacity, FastSet};
use crate::key::InlineKey;
use crate::relation::Relation;

/// A relation of interned values in columnar layout.
///
/// Row `r` is `(col(0)[r], col(1)[r], …)`. Arity-0 relations hold zero or
/// one (empty) rows, tracked by `n_rows` alone.
///
/// Base-relation mirrors grow by *segments*: [`IdRel::append_delta`]
/// interns only the delta's cells (the dictionary is append-only, so
/// surviving rows keep their ids), and [`IdRel::mark_deleted_where`]
/// tombstones rows in place instead of compacting — physical row ids stay
/// stable, so cached CSR indexes can be merged rather than rebuilt.
/// Derived relations (normalizations, projections, semijoin results) are
/// always compact: every producing operation here skips dead rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdRel {
    n_rows: usize,
    cols: Vec<Vec<ValueId>>,
    /// Tombstone bitmap over physical rows (bit set = deleted). May be
    /// shorter than `n_rows / 64` — rows past its end are live (deltas
    /// appended after a delete don't grow it until the next delete).
    tombs: Vec<u64>,
    /// Number of set bits in `tombs`.
    n_dead: usize,
    /// Delta segments appended since construction (diagnostics; the base
    /// build is segment zero).
    delta_segments: u32,
}

impl IdRel {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> IdRel {
        IdRel {
            n_rows: 0,
            cols: vec![Vec::new(); arity],
            tombs: Vec::new(),
            n_dead: 0,
            delta_segments: 0,
        }
    }

    /// An empty relation with row capacity.
    pub fn with_capacity(arity: usize, rows: usize) -> IdRel {
        IdRel {
            n_rows: 0,
            // Not `vec![Vec::with_capacity(rows); arity]`: cloning an empty
            // Vec drops its capacity, which would leave every column but
            // one unallocated.
            cols: (0..arity).map(|_| Vec::with_capacity(rows)).collect(),
            tombs: Vec::new(),
            n_dead: 0,
            delta_segments: 0,
        }
    }

    /// Interns every value of `rel` into `dict` and lays the result out
    /// column-wise. Row order is preserved.
    pub fn from_relation(rel: &Relation, dict: &mut Dictionary) -> IdRel {
        let mut out = IdRel::with_capacity(rel.arity(), rel.len());
        for row in rel.iter_rows() {
            for (c, &v) in row.iter().enumerate() {
                out.cols[c].push(dict.intern(v));
            }
            out.n_rows += 1;
        }
        out
    }

    /// The arity (number of columns).
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of physical rows, dead rows included — the bound for raw
    /// row-id access ([`IdRel::at`], [`IdRel::col`]). Use
    /// [`IdRel::live_len`] for cardinality.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Whether there are no physical rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of live (non-tombstoned) rows — the logical cardinality.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.n_rows - self.n_dead
    }

    /// Number of tombstoned rows.
    #[inline]
    pub fn n_dead(&self) -> usize {
        self.n_dead
    }

    /// Whether any row is tombstoned.
    #[inline]
    pub fn has_tombstones(&self) -> bool {
        self.n_dead != 0
    }

    /// Whether physical row `r` is live. Rows past the bitmap's end are
    /// live by construction.
    #[inline]
    pub fn is_live(&self, r: usize) -> bool {
        self.n_dead == 0
            || self
                .tombs
                .get(r >> 6)
                .is_none_or(|w| w & (1u64 << (r & 63)) == 0)
    }

    /// Segments: the base build plus one per appended delta.
    #[inline]
    pub fn n_segments(&self) -> usize {
        self.delta_segments as usize + 1
    }

    /// Fraction of physical rows that are tombstoned (`0.0` when empty) —
    /// the churn-bloat signal `ucq explain` surfaces.
    pub fn tombstone_fraction(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.n_dead as f64 / self.n_rows as f64
        }
    }

    /// Appends `delta` as a new segment, interning only its cells — O(Δ),
    /// not O(n): surviving rows already hold stable ids in the append-only
    /// `dict`. Returns the number of physical rows added. An arity-0 delta
    /// revives the single empty tuple.
    pub fn append_delta(&mut self, delta: &Relation, dict: &mut Dictionary) -> usize {
        assert_eq!(delta.arity(), self.arity(), "delta arity mismatch");
        if delta.is_empty() {
            return 0;
        }
        self.delta_segments += 1;
        if self.arity() == 0 {
            let added = usize::from(self.live_len() == 0);
            self.n_rows = 1;
            self.tombs.clear();
            self.n_dead = 0;
            return added;
        }
        for row in delta.iter_rows() {
            for (c, &v) in row.iter().enumerate() {
                self.cols[c].push(dict.intern(v));
            }
        }
        self.n_rows += delta.len();
        delta.len()
    }

    /// Tombstones every live row whose ids satisfy `pred` — rows stay
    /// physically in place (cached CSR row ids remain valid), they just
    /// stop being visible to live-row consumers. Returns the number of
    /// rows newly tombstoned.
    pub fn mark_deleted_where<F>(&mut self, mut pred: F) -> usize
    where
        F: FnMut(&[ValueId]) -> bool,
    {
        let mut buf: Vec<ValueId> = Vec::with_capacity(self.arity());
        let mut killed = 0usize;
        for r in 0..self.n_rows {
            if !self.is_live(r) {
                continue;
            }
            buf.clear();
            buf.extend(self.cols.iter().map(|col| col[r]));
            if pred(&buf) {
                let want = (r >> 6) + 1;
                if self.tombs.len() < want {
                    self.tombs.resize(want, 0);
                }
                self.tombs[r >> 6] |= 1u64 << (r & 63);
                self.n_dead += 1;
                killed += 1;
            }
        }
        killed
    }

    /// Column `c` as a dense id slice — the columnar access path.
    #[inline]
    pub fn col(&self, c: usize) -> &[ValueId] {
        &self.cols[c]
    }

    /// The id at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> ValueId {
        self.cols[col][row]
    }

    /// Appends a row. Panics on arity mismatch. Arity-0 relations saturate
    /// at one row (the single empty tuple).
    #[inline]
    pub fn push_row(&mut self, row: &[ValueId]) {
        assert_eq!(row.len(), self.arity(), "row arity mismatch");
        if self.arity() == 0 {
            self.n_rows = 1;
            return;
        }
        for (c, &id) in row.iter().enumerate() {
            self.cols[c].push(id);
        }
        self.n_rows += 1;
    }

    /// Copies row `r`'s ids into `out` (cleared first). Reusing one buffer
    /// across calls keeps row gathering allocation-free.
    #[inline]
    pub fn gather_row(&self, r: usize, out: &mut Vec<ValueId>) {
        out.clear();
        for col in &self.cols {
            out.push(col[r]);
        }
    }

    /// Projects onto `cols` (by position), deduplicating rows (packed-key
    /// dedup for projections up to 4 columns — see [`IdSet`]). Tombstoned
    /// rows are skipped; the projection is always compact.
    pub fn project_dedup(&self, cols: &[usize]) -> IdRel {
        let mut seen = IdSet::with_capacity(self.live_len());
        let mut out = IdRel::new(cols.len());
        let col_slices: Vec<&[ValueId]> = cols.iter().map(|&c| self.cols[c].as_slice()).collect();
        let mut buf: Vec<ValueId> = Vec::with_capacity(cols.len());
        for r in 0..self.n_rows {
            if !self.is_live(r) {
                continue;
            }
            buf.clear();
            buf.extend(col_slices.iter().map(|c| c[r]));
            if seen.insert(&buf) {
                out.push_row(&buf);
            }
        }
        out
    }

    /// Keeps only live rows whose ids (projected onto `key_cols`) pass
    /// `pred`. The predicate sees the projected key in a reused buffer.
    /// Compacts: tombstoned rows are dropped along the way.
    pub fn retain_rows_by_key<F>(&mut self, key_cols: &[usize], mut pred: F)
    where
        F: FnMut(&[ValueId]) -> bool,
    {
        if self.arity() == 0 {
            self.n_rows = usize::from(self.live_len() == 1 && pred(&[]));
            self.tombs.clear();
            self.n_dead = 0;
            return;
        }
        let mut buf: Vec<ValueId> = Vec::with_capacity(key_cols.len());
        let mut write = 0usize;
        for read in 0..self.n_rows {
            if !self.is_live(read) {
                continue;
            }
            buf.clear();
            buf.extend(key_cols.iter().map(|&c| self.cols[c][read]));
            if pred(&buf) {
                if write != read {
                    for col in self.cols.iter_mut() {
                        col[write] = col[read];
                    }
                }
                write += 1;
            }
        }
        for col in self.cols.iter_mut() {
            col.truncate(write);
        }
        self.n_rows = write;
        self.tombs.clear();
        self.n_dead = 0;
    }

    /// The compact copy of the rows `keep` marks (indexed by physical row
    /// id), in row order; tombstoned rows are dropped along the way. One
    /// gather pass per column — the full reducer's "compact once" step.
    pub fn filter_rows(&self, keep: &[bool]) -> IdRel {
        assert_eq!(keep.len(), self.n_rows, "one keep flag per physical row");
        let kept: Vec<usize> = (0..self.n_rows)
            .filter(|&r| keep[r] && self.is_live(r))
            .collect();
        IdRel {
            // Arity 0 holds at most the one empty tuple.
            n_rows: kept.len(),
            cols: self
                .cols
                .iter()
                .map(|col| kept.iter().map(|&r| col[r]).collect())
                .collect(),
            tombs: Vec::new(),
            n_dead: 0,
            delta_segments: 0,
        }
    }

    /// Deduplicates rows, preserving first-occurrence order. Compacts
    /// tombstoned rows away as a side effect.
    pub fn dedup_rows(&mut self) {
        if self.arity() == 0 || self.n_rows <= 1 {
            if self.n_dead > 0 {
                self.n_rows = self.live_len();
                self.tombs.clear();
                self.n_dead = 0;
                for col in self.cols.iter_mut() {
                    col.truncate(self.n_rows);
                }
            }
            return;
        }
        let mut seen: FastSet<InlineKey> = fast_set_with_capacity(self.n_rows);
        let all: Vec<usize> = (0..self.arity()).collect();
        self.retain_rows_by_key(&all, |row| seen.insert(InlineKey::from_slice(row)));
    }

    /// Decodes back to a row-major [`Relation`] (answer-boundary only).
    /// Tombstoned rows are not decoded.
    pub fn decode(&self, dict: &Dictionary) -> Relation {
        let mut out = Relation::with_capacity(self.arity(), self.live_len());
        let mut buf = Vec::with_capacity(self.arity());
        for r in 0..self.n_rows {
            if !self.is_live(r) {
                continue;
            }
            buf.clear();
            buf.extend(self.cols.iter().map(|col| dict.value(col[r])));
            out.push_row(&buf);
        }
        out
    }
}

/// Packs a short id row into a `u128` (32 bits per position; valid for
/// `row.len() <= 4`). Only comparable between rows of one fixed width —
/// exactly what a per-projection set guarantees.
#[inline]
fn pack_ids(row: &[ValueId]) -> u128 {
    debug_assert!(row.len() <= 4, "packed keys hold at most 4 ids");
    row.iter()
        .fold(0u128, |acc, &id| (acc << 32) | id.0 as u128)
}

/// Packs an id row of up to 2 ids into a `u64` (the common separator and
/// answer width — one hasher word instead of two).
#[inline]
fn pack_ids64(row: &[ValueId]) -> u64 {
    debug_assert!(row.len() <= 2, "u64 packing holds at most 2 ids");
    row.iter().fold(0u64, |acc, &id| (acc << 32) | id.0 as u64)
}

/// The representation behind [`IdSet`]: keys of up to 2 ids pack into one
/// `u64` (one hasher word, 8-byte equality), up to 4 into one `u128`,
/// wider keys spill to [`InlineKey`]s. The width is fixed at the first
/// insert, so packing is collision-free.
#[derive(Clone, Debug)]
enum IdSetRepr {
    /// No key inserted yet; `cap` is the deferred capacity hint.
    Empty {
        cap: usize,
    },
    Packed64 {
        width: usize,
        set: FastSet<u64>,
    },
    Packed {
        width: usize,
        set: FastSet<u128>,
    },
    Keys(FastSet<InlineKey>),
}

/// A hash set of projected id rows: the id-side analogue of
/// [`RowSet`](crate::RowSet), probed with borrowed `&[ValueId]` keys
/// (allocation-free for any width; no hashing of spilled boxes for keys up
/// to 4 ids — see [`IdSetRepr`]).
#[derive(Clone, Debug)]
pub struct IdSet {
    repr: IdSetRepr,
    len: usize,
}

impl Default for IdSet {
    fn default() -> IdSet {
        IdSet::new()
    }
}

impl IdSet {
    /// An empty set.
    pub fn new() -> IdSet {
        IdSet::with_capacity(0)
    }

    /// An empty set preallocated for `cap` keys.
    pub fn with_capacity(cap: usize) -> IdSet {
        IdSet {
            repr: IdSetRepr::Empty { cap },
            len: 0,
        }
    }

    /// The projections of all live rows of `rel` onto `cols`.
    pub fn build_projected(rel: &IdRel, cols: &[usize]) -> IdSet {
        let mut out = IdSet::with_capacity(rel.live_len());
        // Hoisted column accessors for the whole build pass.
        let col_slices: Vec<&[ValueId]> = cols.iter().map(|&c| rel.col(c)).collect();
        let mut buf: Vec<ValueId> = Vec::with_capacity(cols.len());
        for r in 0..rel.len() {
            if !rel.is_live(r) {
                continue;
            }
            buf.clear();
            buf.extend(col_slices.iter().map(|c| c[r]));
            out.insert(&buf);
        }
        out
    }

    /// All full rows of `rel`.
    pub fn build(rel: &IdRel) -> IdSet {
        let all: Vec<usize> = (0..rel.arity()).collect();
        IdSet::build_projected(rel, &all)
    }

    /// Membership test with a borrowed key — no allocation.
    #[inline]
    pub fn contains(&self, key: &[ValueId]) -> bool {
        match &self.repr {
            IdSetRepr::Empty { .. } => false,
            IdSetRepr::Packed64 { width, set } => {
                debug_assert_eq!(key.len(), *width, "set keys have one fixed width");
                set.contains(&pack_ids64(key))
            }
            IdSetRepr::Packed { width, set } => {
                debug_assert_eq!(key.len(), *width, "set keys have one fixed width");
                set.contains(&pack_ids(key))
            }
            IdSetRepr::Keys(set) => set.contains(key),
        }
    }

    /// Inserts a key; returns whether it was new. All keys of one set must
    /// share one width (the projection width).
    #[inline]
    pub fn insert(&mut self, key: &[ValueId]) -> bool {
        if let IdSetRepr::Empty { cap } = self.repr {
            self.repr = if key.len() <= 2 {
                IdSetRepr::Packed64 {
                    width: key.len(),
                    set: fast_set_with_capacity(cap),
                }
            } else if key.len() <= 4 {
                IdSetRepr::Packed {
                    width: key.len(),
                    set: fast_set_with_capacity(cap),
                }
            } else {
                IdSetRepr::Keys(fast_set_with_capacity(cap))
            };
        }
        let fresh = match &mut self.repr {
            IdSetRepr::Empty { .. } => unreachable!("initialized above"),
            IdSetRepr::Packed64 { width, set } => {
                debug_assert_eq!(key.len(), *width, "set keys have one fixed width");
                set.insert(pack_ids64(key))
            }
            IdSetRepr::Packed { width, set } => {
                debug_assert_eq!(key.len(), *width, "set keys have one fixed width");
                set.insert(pack_ids(key))
            }
            IdSetRepr::Keys(set) => set.insert(InlineKey::from_slice(key)),
        };
        self.len += usize::from(fresh);
        fresh
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Appends the atom-normalization of `base`'s live rows `start..` onto
/// `(out, seen)`: keeps rows whose repeated positions (equal ranks in
/// `sig`) agree, projects to one column per distinct rank in rank order,
/// and deduplicates against `seen`.
///
/// Normalization is prefix-compositional: if `(out, seen)` hold the
/// normalization of physical rows `0..start`, the result holds the
/// normalization of rows `0..base.len()`.
/// [`EvalContext::insert_rows`](crate::EvalContext::insert_rows) leans on
/// exactly that to carry cached normalizations over a delta append —
/// re-normalizing only the delta segment — while a from-scratch build is
/// `start == 0` on empty state ([`normalize_ranked`]).
pub fn normalize_ranked_append(
    base: &IdRel,
    sig: &[u32],
    start: usize,
    out: &mut IdRel,
    seen: &mut IdSet,
) {
    let n_distinct = sig.iter().map(|&r| r + 1).max().unwrap_or(0) as usize;
    // First source position of each rank.
    let src_pos: Vec<usize> = (0..n_distinct as u32)
        .map(|r| sig.iter().position(|&s| s == r).expect("rank present"))
        .collect();
    // Positions that must agree (repeated variables) — resolved to column
    // slices once, outside the row loop.
    let eq_cols: Vec<(&[ValueId], &[ValueId])> = sig
        .iter()
        .enumerate()
        .filter_map(|(i, &r)| {
            let first = src_pos[r as usize];
            (first != i).then(|| (base.col(first), base.col(i)))
        })
        .collect();
    let src_cols: Vec<&[ValueId]> = src_pos.iter().map(|&p| base.col(p)).collect();
    let mut buf: Vec<ValueId> = Vec::with_capacity(n_distinct);
    for row in start..base.len() {
        // Tombstoned rows of a churned base mirror are not part of the
        // relation; normalizations are always compact.
        if !base.is_live(row) {
            continue;
        }
        if eq_cols.iter().any(|&(a, b)| a[row] != b[row]) {
            continue;
        }
        buf.clear();
        buf.extend(src_cols.iter().map(|c| c[row]));
        if seen.insert(&buf) {
            out.push_row(&buf);
        }
    }
}

/// The atom-normalization of all live rows of `base` (see
/// [`normalize_ranked_append`]), along with the dedup set — cached
/// together so later delta appends can continue where this build stopped.
pub fn normalize_ranked(base: &IdRel, sig: &[u32]) -> (IdRel, IdSet) {
    let n_distinct = sig.iter().map(|&r| r + 1).max().unwrap_or(0) as usize;
    let mut out = IdRel::with_capacity(n_distinct, base.live_len());
    let mut seen = IdSet::with_capacity(base.live_len());
    normalize_ranked_append(base, sig, 0, &mut out, &mut seen);
    (out, seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rel_of_pairs(pairs: &[(i64, i64)]) -> (IdRel, Dictionary) {
        let mut dict = Dictionary::new();
        let rel = Relation::from_pairs(pairs.iter().copied());
        (IdRel::from_relation(&rel, &mut dict), dict)
    }

    #[test]
    fn columnar_layout_roundtrips() {
        let (r, dict) = rel_of_pairs(&[(1, 10), (2, 20), (1, 30)]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.col(0).len(), 3);
        // Column 0 has 1 appearing twice with the same id.
        assert_eq!(r.col(0)[0], r.col(0)[2]);
        assert_ne!(r.col(0)[0], r.col(0)[1]);
        assert_eq!(dict.value(r.at(1, 1)), Value::Int(20));
        let back = r.decode(&dict);
        assert_eq!(back.row(2), &[Value::Int(1), Value::Int(30)]);
    }

    #[test]
    fn gather_row_reuses_buffer() {
        let (r, _) = rel_of_pairs(&[(5, 6), (7, 8)]);
        let mut buf = Vec::new();
        r.gather_row(1, &mut buf);
        assert_eq!(buf, vec![r.at(1, 0), r.at(1, 1)]);
        r.gather_row(0, &mut buf);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn project_dedup_on_ids() {
        let (r, _) = rel_of_pairs(&[(1, 10), (1, 20), (2, 30)]);
        let p = r.project_dedup(&[0]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.len(), 2);
        let swapped = r.project_dedup(&[1, 0]);
        assert_eq!(swapped.at(0, 0), r.at(0, 1));
    }

    #[test]
    fn retain_rows_by_key_filters_in_place() {
        let (mut r, _) = rel_of_pairs(&[(1, 1), (2, 1), (3, 3)]);
        r.retain_rows_by_key(&[0, 1], |k| k[0] == k[1]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.at(0, 0), r.at(0, 1));
        assert_eq!(r.at(1, 0), r.at(1, 1));
    }

    #[test]
    fn nullary_semantics() {
        let mut r = IdRel::new(0);
        assert!(r.is_empty());
        r.push_row(&[]);
        r.push_row(&[]);
        assert_eq!(r.len(), 1);
        r.retain_rows_by_key(&[], |_| false);
        assert!(r.is_empty());
    }

    #[test]
    fn dedup_rows_preserves_first_occurrence() {
        let (mut r, _) = rel_of_pairs(&[(1, 2), (3, 4), (1, 2)]);
        r.dedup_rows();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn filter_rows_matches_retain_by_key() {
        let (mut a, dict) = rel_of_pairs(&[(1, 10), (2, 20), (3, 30), (2, 40), (9, 50)]);
        let two = dict.lookup(Value::Int(2)).unwrap();
        let nine = dict.lookup(Value::Int(9)).unwrap();
        a.mark_deleted_where(|row| row[0] == nine);
        let keep: Vec<bool> = (0..a.len()).map(|r| a.at(r, 0) != two).collect();
        let filtered = a.filter_rows(&keep);
        a.retain_rows_by_key(&[0], |k| k[0] != two);
        assert_eq!(filtered, a);
        assert_eq!(filtered.len(), 2, "masked and tombstoned rows are gone");
        assert!(!filtered.has_tombstones());
    }

    #[test]
    fn idset_capacity_paths_agree_on_duplicate_heavy_input() {
        // 1000 rows, 3 distinct keys: preallocating `rel.len()` slots must
        // not change observable behavior, only avoid growth rehashes.
        let pairs: Vec<(i64, i64)> = (0..1000).map(|i| (i % 3, i % 3 + 10)).collect();
        let (r, _) = rel_of_pairs(&pairs);
        let s = IdSet::build_projected(&r, &[0]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&[r.at(0, 0)]));
        assert!(!s.contains(&[r.at(0, 1)]));
        let full = IdSet::build(&r);
        assert_eq!(full.len(), 3, "duplicates collapse to distinct rows");
        let mut manual = IdSet::with_capacity(r.len());
        for i in 0..r.len() {
            manual.insert(&[r.at(i, 0)]);
        }
        assert_eq!(manual.len(), s.len());
    }

    #[test]
    fn append_delta_adds_a_segment_with_stable_ids() {
        let (mut r, mut dict) = rel_of_pairs(&[(1, 10), (2, 20)]);
        let id_one = r.at(0, 0);
        let dict_before = dict.len();
        let added = r.append_delta(&Relation::from_pairs([(1, 99), (3, 30)]), &mut dict);
        assert_eq!(added, 2);
        assert_eq!(r.len(), 4);
        assert_eq!(r.live_len(), 4);
        assert_eq!(r.n_segments(), 2);
        assert_eq!(r.at(2, 0), id_one, "surviving values keep their ids");
        assert_eq!(dict.len(), dict_before + 3, "only delta values interned");
        assert_eq!(r.decode(&dict).len(), 4);
    }

    #[test]
    fn mark_deleted_tombstones_without_moving_rows() {
        let (mut r, dict) = rel_of_pairs(&[(1, 10), (2, 20), (3, 30)]);
        let gone = dict.lookup(Value::Int(2)).unwrap();
        let killed = r.mark_deleted_where(|row| row[0] == gone);
        assert_eq!(killed, 1);
        assert_eq!(r.len(), 3, "physical rows stay put");
        assert_eq!(r.live_len(), 2);
        assert!(r.is_live(0) && !r.is_live(1) && r.is_live(2));
        assert!((r.tombstone_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.decode(&dict).len(), 2, "decode skips dead rows");
        assert_eq!(r.project_dedup(&[0]).len(), 2);
        assert_eq!(IdSet::build_projected(&r, &[0]).len(), 2);
        // Marking again matches nothing: the dead row is not revisited.
        let again = r.mark_deleted_where(|row| row[0] == gone);
        assert_eq!(again, 0);
    }

    #[test]
    fn retains_compact_tombstones_away() {
        let (mut r, dict) = rel_of_pairs(&[(1, 10), (2, 20), (3, 30)]);
        let two = dict.lookup(Value::Int(2)).unwrap();
        r.mark_deleted_where(|row| row[0] == two);
        r.retain_rows_by_key(&[0], |_| true);
        assert_eq!(r.len(), 2);
        assert!(!r.has_tombstones());
        assert_eq!(r.decode(&dict).len(), 2);
    }

    #[test]
    fn delta_after_delete_keeps_later_rows_live() {
        let (mut r, mut dict) = rel_of_pairs(&[(1, 10), (2, 20)]);
        let one = dict.lookup(Value::Int(1)).unwrap();
        r.mark_deleted_where(|row| row[0] == one);
        r.append_delta(&Relation::from_pairs([(4, 40)]), &mut dict);
        assert_eq!(r.len(), 3);
        assert_eq!(r.live_len(), 2);
        assert!(r.is_live(2), "appended rows are live past the bitmap end");
        assert_eq!(r.n_segments(), 2);
    }

    #[test]
    fn nullary_delta_and_delete_roundtrip() {
        let mut r = IdRel::new(0);
        let mut dict = Dictionary::new();
        let mut unit = Relation::new(0);
        unit.push_row(&[]);
        assert_eq!(r.append_delta(&unit, &mut dict), 1);
        assert_eq!(r.live_len(), 1);
        assert_eq!(r.mark_deleted_where(|_| true), 1);
        assert_eq!(r.live_len(), 0);
        assert_eq!(r.append_delta(&unit, &mut dict), 1, "delta revives");
        assert_eq!(r.live_len(), 1);
    }

    #[test]
    fn idset_projected_membership() {
        let (r, _) = rel_of_pairs(&[(1, 2), (1, 3)]);
        let s = IdSet::build_projected(&r, &[0]);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&[r.at(0, 0)]));
        assert!(!s.contains(&[r.at(0, 1)]));
        let full = IdSet::build(&r);
        assert_eq!(full.len(), 2);
    }
}
