//! Immutable serve-phase context snapshots and the two-phase view.
//!
//! [`FrozenContext`] is the read side of the context lifecycle described in
//! [`crate::context`]: a point-in-time snapshot of a build-phase
//! [`EvalContext`] — dictionary, interned-relation cache, derived-relation
//! cache and index cache — with **no lock on any hot-path read**. Decode,
//! probe and dedup all run against plain immutable tables, so one frozen
//! snapshot can serve any number of enumeration threads at once.
//!
//! A query evaluated *after* the freeze can still miss these caches (a
//! relation never touched during preprocessing, an index keyed on new
//! columns, a constant the session has never seen). Those misses fall back
//! to a mutex-guarded **overflow** overlay: new values get ids at and above
//! the frozen watermark (`base_len`), and newly built relations/indexes
//! land in overlay maps. The frozen snapshot itself is never mutated, so
//! concurrent readers on the fast path are unaffected — they only pay the
//! overflow lock for ids or cache keys the snapshot does not cover.
//!
//! [`CtxView`] unifies the two phases behind the full `EvalContext` API so
//! every pipeline in the workspace (`core::{engine, pipeline, algorithm1,
//! lemma8, naive_ucq}`, `enumerate::{cheater, idenum}`, `yannakakis::{cdy,
//! naive, noderel}`) runs unchanged against either a build-phase context or
//! a frozen snapshot.

use crate::context::{
    ContextStats, EvalContext, IndexEntry, IndexKey, IngestStats, PlanKey, PlanSlot, RelChurn,
    StatsEntry,
};
use crate::dictionary::{Dictionary, ValueId};
use crate::hash::FastMap;
use crate::idrel::IdRel;
use crate::index::HashIndex;
use crate::key::InlineKey;
use crate::relation::Relation;
use crate::stats::RelStats;
use crate::sync::{
    lock_unpoisoned, AtomicBool, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering,
};
use crate::tuple::{decode_exact, extend_decoded, Tuple};
use crate::value::Value;
use std::any::Any;
use std::sync::Arc;

/// Post-freeze fallback state: an overlay dictionary (ids `>= base_len`)
/// plus overlay caches for relations/indexes first requested after the
/// freeze. Guarded by one mutex; only touched on snapshot misses.
#[derive(Debug, Default)]
struct Overflow {
    /// Values unknown to the frozen dictionary, in id order; the id of
    /// `values[i]` is `base_len + i`.
    values: Vec<Value>,
    map: FastMap<Value, ValueId>,
    interned: FastMap<usize, (Arc<Relation>, Arc<IdRel>)>,
    derived: FastMap<(usize, Box<[u32]>), Arc<IdRel>>,
    indexes: FastMap<IndexKey, IndexEntry>,
    rel_stats: FastMap<usize, StatsEntry>,
    plans: FastMap<PlanKey, PlanSlot>,
}

/// An immutable, `Send + Sync` snapshot of an [`EvalContext`]. See the
/// module docs; constructed via [`EvalContext::freeze`].
#[derive(Debug)]
pub struct FrozenContext {
    /// Shared with the build context's snapshot cache: consecutive epochs
    /// that interned no new values alias one dictionary table.
    dict: Arc<Dictionary>,
    /// Frozen dictionary size: ids below this decode without locking.
    base_len: usize,
    interned: FastMap<usize, (Arc<Relation>, Arc<IdRel>)>,
    derived: FastMap<(usize, Box<[u32]>), Arc<IdRel>>,
    indexes: FastMap<IndexKey, IndexEntry>,
    rel_stats: FastMap<usize, StatsEntry>,
    plans: FastMap<PlanKey, PlanSlot>,
    /// The stats epoch at freeze time; post-freeze overlay interns add
    /// `epoch_bumps` on top.
    base_epoch: u64,
    epoch_bumps: AtomicU64,
    /// Counters carried over from the build phase at freeze time.
    base_stats: ContextStats,
    overflow: Mutex<Overflow>,
    /// Set once the overlay dictionary is non-empty, letting negative
    /// lookups on purely-frozen sessions skip the overflow lock.
    has_overflow: AtomicBool,
    interned_hits: AtomicUsize,
    interned_builds: AtomicUsize,
    derived_hits: AtomicUsize,
    derived_builds: AtomicUsize,
    index_hits: AtomicUsize,
    index_builds: AtomicUsize,
}

impl FrozenContext {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        dict: Arc<Dictionary>,
        interned: FastMap<usize, (Arc<Relation>, Arc<IdRel>)>,
        derived: FastMap<(usize, Box<[u32]>), Arc<IdRel>>,
        indexes: FastMap<IndexKey, IndexEntry>,
        rel_stats: FastMap<usize, StatsEntry>,
        plans: FastMap<PlanKey, PlanSlot>,
        base_epoch: u64,
        base_stats: ContextStats,
    ) -> FrozenContext {
        FrozenContext {
            base_len: dict.len(),
            dict,
            interned,
            derived,
            indexes,
            rel_stats,
            plans,
            base_epoch,
            epoch_bumps: AtomicU64::new(0),
            base_stats,
            overflow: Mutex::new(Overflow::default()),
            has_overflow: AtomicBool::new(false),
            interned_hits: AtomicUsize::new(0),
            interned_builds: AtomicUsize::new(0),
            derived_hits: AtomicUsize::new(0),
            derived_builds: AtomicUsize::new(0),
            index_hits: AtomicUsize::new(0),
            index_builds: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn overflow(&self) -> MutexGuard<'_, Overflow> {
        // Overflow mutations are append-only inserts; recover from a
        // poisoned lock rather than failing the whole serve phase.
        lock_unpoisoned(&self.overflow, "the FrozenContext overflow overlay")
    }

    /// Interns `v` into the overlay (or returns its existing overlay id).
    /// Never touches the frozen snapshot.
    fn intern_with(&self, ov: &mut Overflow, v: Value) -> ValueId {
        if let Some(id) = self.dict.lookup(v) {
            return id;
        }
        if let Some(&id) = ov.map.get(&v) {
            return id;
        }
        let id = ValueId((self.base_len + ov.values.len()) as u32);
        ov.values.push(v);
        ov.map.insert(v, id);
        self.has_overflow.store(true, Ordering::Release);
        id
    }

    #[inline]
    fn value_with(&self, ov: &Overflow, id: ValueId) -> Value {
        let i = id.index();
        if i < self.base_len {
            self.dict.value(id)
        } else {
            ov.values[i - self.base_len]
        }
    }

    #[cold]
    fn decode_overflow(&self, id: ValueId) -> Value {
        self.overflow().values[id.index() - self.base_len]
    }

    /// Lock-free for frozen ids (the hot path); overlay ids take the
    /// overflow lock.
    #[inline]
    fn decode_fast(&self, id: ValueId) -> Value {
        if id.index() < self.base_len {
            self.dict.value(id)
        } else {
            self.decode_overflow(id)
        }
    }

    /// Interns one value (overlay on frozen-dictionary miss).
    ///
    /// The `faults::force_overlay_miss` chaos hook (inert outside
    /// `--cfg ucq_fault_inject`) skips the lock-free fast path so the
    /// request takes the overlay lock; `intern_with` re-checks the frozen
    /// dictionary under the lock, so the result is identical.
    #[inline]
    pub fn intern(&self, v: Value) -> ValueId {
        if crate::faults::force_overlay_miss() {
            let mut ov = self.overflow();
            return self.intern_with(&mut ov, v);
        }
        match self.dict.lookup(v) {
            Some(id) => id,
            None => {
                let mut ov = self.overflow();
                self.intern_with(&mut ov, v)
            }
        }
    }

    /// The id of `v` if the frozen session (or its overlay) has seen it.
    #[inline]
    pub fn lookup(&self, v: Value) -> Option<ValueId> {
        if crate::faults::force_overlay_miss() {
            // Chaos path: resolve through the overlay lock; frozen ids
            // are still found (the lock-held re-check hits the frozen
            // dictionary first).
            let ov = self.overflow();
            if let Some(id) = self.dict.lookup(v) {
                return Some(id);
            }
            return ov.map.get(&v).copied();
        }
        if let Some(id) = self.dict.lookup(v) {
            return Some(id);
        }
        if !self.has_overflow.load(Ordering::Acquire) {
            return None;
        }
        self.overflow().map.get(&v).copied()
    }

    /// Decodes one id (no lock for frozen ids).
    #[inline]
    pub fn decode(&self, id: ValueId) -> Value {
        self.decode_fast(id)
    }

    /// Decodes a sequence of ids into an answer [`Tuple`] — the per-answer
    /// emission path, lock-free for frozen ids. Chaos hook: one
    /// `faults::on_decode` visit per emitted answer.
    #[inline]
    pub fn decode_tuple<I>(&self, ids: I) -> Tuple
    where
        I: IntoIterator<Item = ValueId>,
        I::IntoIter: ExactSizeIterator,
    {
        crate::faults::on_decode();
        decode_exact(ids, |id| self.decode_fast(id))
    }

    /// Appends `rows` id rows (`width` ids each, row-major in `ids`) to
    /// `out` as answer [`Tuple`]s, lock-free for frozen ids. Nullary rows
    /// carry no ids; they decode to `rows` empty tuples. Chaos hook: one
    /// `faults::on_decode` visit per block.
    pub fn decode_rows_into(
        &self,
        width: usize,
        rows: usize,
        ids: &[ValueId],
        out: &mut Vec<Tuple>,
    ) {
        crate::faults::on_decode();
        extend_decoded(out, width, rows, ids, |id| self.decode_fast(id));
    }

    /// Decodes an interned relation back to a row-major [`Relation`].
    pub fn decode_rel(&self, rel: &IdRel) -> Relation {
        if !self.has_overflow.load(Ordering::Acquire) {
            return rel.decode(&self.dict);
        }
        let ov = self.overflow();
        let mut out = Relation::new(rel.arity());
        let mut ids = Vec::with_capacity(rel.arity());
        let mut vals = Vec::with_capacity(rel.arity());
        for r in 0..rel.len() {
            ids.clear();
            rel.gather_row(r, &mut ids);
            vals.clear();
            vals.extend(ids.iter().map(|&id| self.value_with(&ov, id)));
            out.push_row(&vals);
        }
        out
    }

    /// Looks up every value of `row` into `out` (cleared first) without
    /// interning; `false` if any value is unknown. Lock-free unless the
    /// overlay is non-empty *and* a value misses the frozen dictionary.
    pub fn lookup_row(&self, row: &[Value], out: &mut Vec<ValueId>) -> bool {
        out.clear();
        for &v in row {
            match self.lookup(v) {
                Some(id) => out.push(id),
                None => return false,
            }
        }
        true
    }

    /// Interns a decoded row into an [`InlineKey`] (answer-side dedup).
    pub fn intern_key(&self, row: &[Value]) -> InlineKey {
        let mut buf = [ValueId::BOTTOM; InlineKey::INLINE];
        if row.len() <= InlineKey::INLINE {
            for (slot, &v) in buf.iter_mut().zip(row) {
                *slot = self.intern(v);
            }
            InlineKey::Inline {
                len: row.len() as u8,
                ids: buf,
            }
        } else {
            InlineKey::Spilled(row.iter().map(|&v| self.intern(v)).collect())
        }
    }

    /// Interns a whole relation through the overlay, holding the lock for
    /// the duration (cold path: only relations never seen before freeze).
    fn intern_rel_overflow(&self, rel: &Relation) -> IdRel {
        let mut ov = self.overflow();
        let mut out = IdRel::with_capacity(rel.arity(), rel.len());
        let mut buf = Vec::with_capacity(rel.arity());
        for row in rel.iter_rows() {
            buf.clear();
            buf.extend(row.iter().map(|&v| self.intern_with(&mut ov, v)));
            out.push_row(&buf);
        }
        out
    }

    /// The interned columnar mirror of `rel`: snapshot hit, overlay hit,
    /// or overlay build, in that order.
    pub fn interned_rel(&self, rel: &Arc<Relation>) -> Arc<IdRel> {
        let key = Arc::as_ptr(rel) as usize;
        if let Some((_pin, r)) = self.interned.get(&key) {
            self.interned_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(r);
        }
        if let Some(r) = self
            .overflow()
            .interned
            .get(&key)
            .map(|(_p, r)| Arc::clone(r))
        {
            self.interned_hits.fetch_add(1, Ordering::Relaxed);
            return r;
        }
        self.interned_builds.fetch_add(1, Ordering::Relaxed);
        self.epoch_bumps.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(self.intern_rel_overflow(rel));
        let mut ov = self.overflow();
        // A racing thread may have inserted meanwhile; first build wins so
        // every caller sees one physical IdRel.
        let entry = ov.interned.entry(key).or_insert((Arc::clone(rel), built));
        Arc::clone(&entry.1)
    }

    /// Registers a pre-interned mirror for `rel` in the overlay (the
    /// frozen snapshot is never mutated). Ids in `id_rel` must already be
    /// consistent with this snapshot (frozen ids or overlay ids).
    pub fn register_interned(&self, rel: &Arc<Relation>, id_rel: Arc<IdRel>) {
        debug_assert_eq!(rel.len(), id_rel.len(), "mirror must match row count");
        let key = Arc::as_ptr(rel) as usize;
        // No epoch bump: registrations are pipeline-produced mirrors of
        // derived data (Lemma 8 materializations), not new base relations —
        // bumping here would invalidate the plan cache on every prepare.
        self.overflow()
            .interned
            .insert(key, (Arc::clone(rel), id_rel));
    }

    /// A relation derived from `rel` by a pure id-level transformation
    /// (see [`EvalContext::derived_rel`]): snapshot hit, overlay hit, or
    /// overlay build.
    pub fn derived_rel(
        &self,
        rel: &Arc<Relation>,
        sig: &[u32],
        build: impl FnOnce(&IdRel) -> IdRel,
    ) -> Arc<IdRel> {
        let key = (Arc::as_ptr(rel) as usize, sig.into());
        if let Some(found) = self.derived.get(&key) {
            self.derived_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        if let Some(found) = self.overflow().derived.get(&key).cloned() {
            self.derived_hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        // Build outside the lock: `interned_rel` takes it internally, and
        // `build` may re-enter the context.
        let base = self.interned_rel(rel);
        let built = Arc::new(build(&base));
        self.derived_builds.fetch_add(1, Ordering::Relaxed);
        let mut ov = self.overflow();
        Arc::clone(ov.derived.entry(key).or_insert(built))
    }

    /// The cached index over `rel` keyed on `key_cols`: snapshot hit,
    /// overlay hit, or overlay build.
    pub fn index(&self, rel: &Arc<IdRel>, key_cols: &[usize]) -> Arc<HashIndex> {
        let key = (Arc::as_ptr(rel) as usize, key_cols.into());
        if let Some((_pin, idx)) = self.indexes.get(&key) {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(idx);
        }
        if let Some(idx) = self
            .overflow()
            .indexes
            .get(&key)
            .map(|(_p, i)| Arc::clone(i))
        {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
            return idx;
        }
        self.index_builds.fetch_add(1, Ordering::Relaxed);
        let idx = Arc::new(HashIndex::build(rel, key_cols));
        let mut ov = self.overflow();
        let entry = ov.indexes.entry(key).or_insert((Arc::clone(rel), idx));
        Arc::clone(&entry.1)
    }

    /// The cached [`RelStats`] of `rel`: snapshot hit, overlay hit, or
    /// overlay compute (harvesting frozen single-column indexes where they
    /// exist).
    pub fn rel_stats(&self, rel: &Arc<IdRel>) -> Arc<RelStats> {
        let key = Arc::as_ptr(rel) as usize;
        if let Some((_pin, s)) = self.rel_stats.get(&key) {
            return Arc::clone(s);
        }
        if let Some(s) = self
            .overflow()
            .rel_stats
            .get(&key)
            .map(|(_p, s)| Arc::clone(s))
        {
            return s;
        }
        // Compute outside the overflow lock; only frozen indexes are
        // harvested (peeking the overlay would deadlock and the cold path
        // does not warrant it).
        let stats = Arc::new(RelStats::compute_with(rel, |c| {
            let ikey: IndexKey = (key, [c].as_slice().into());
            self.indexes
                .get(&ikey)
                .map(|(_p, i)| RelStats::column_from_index(i))
        }));
        let mut ov = self.overflow();
        let entry = ov.rel_stats.entry(key).or_insert((Arc::clone(rel), stats));
        Arc::clone(&entry.1)
    }

    /// The stats epoch: the frozen base plus one bump per post-freeze
    /// overlay intern/registration.
    pub fn stats_epoch(&self) -> u64 {
        self.base_epoch + self.epoch_bumps.load(Ordering::Relaxed)
    }

    /// The cached plan stored under `(fingerprint, epoch)`: snapshot hit or
    /// overlay hit.
    pub fn cached_plan(&self, fingerprint: u64, epoch: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        if let Some(slot) = self.plans.get(&(fingerprint, epoch)) {
            return Some(Arc::clone(&slot.0));
        }
        self.overflow()
            .plans
            .get(&(fingerprint, epoch))
            .map(|s| Arc::clone(&s.0))
    }

    /// Stores a type-erased plan under `(fingerprint, epoch)` in the
    /// overlay (the frozen snapshot is never mutated).
    pub fn store_plan(&self, fingerprint: u64, epoch: u64, plan: Arc<dyn Any + Send + Sync>) {
        self.overflow()
            .plans
            .insert((fingerprint, epoch), PlanSlot(plan));
    }

    /// Number of distinct values known (frozen watermark plus overlay).
    pub fn dict_len(&self) -> usize {
        if !self.has_overflow.load(Ordering::Acquire) {
            return self.base_len;
        }
        self.base_len + self.overflow().values.len()
    }

    /// The frozen watermark: ids below this decode without any lock.
    pub fn frozen_len(&self) -> usize {
        self.base_len
    }

    /// Whether any post-freeze value has been interned into the overlay.
    pub fn has_overflowed(&self) -> bool {
        self.has_overflow.load(Ordering::Acquire)
    }

    /// Cache counters: build-phase totals at freeze time plus serve-phase
    /// activity since.
    pub fn stats(&self) -> ContextStats {
        ContextStats {
            interned_hits: self.base_stats.interned_hits
                + self.interned_hits.load(Ordering::Relaxed),
            interned_builds: self.base_stats.interned_builds
                + self.interned_builds.load(Ordering::Relaxed),
            derived_hits: self.base_stats.derived_hits + self.derived_hits.load(Ordering::Relaxed),
            derived_builds: self.base_stats.derived_builds
                + self.derived_builds.load(Ordering::Relaxed),
            index_hits: self.base_stats.index_hits + self.index_hits.load(Ordering::Relaxed),
            index_builds: self.base_stats.index_builds + self.index_builds.load(Ordering::Relaxed),
        }
    }
}

/// A two-phase context handle: either a mutable build-phase
/// [`EvalContext`] or an immutable serve-phase [`FrozenContext`]. Cloning
/// is an `Arc` bump; both variants are `Send + Sync`, and the full context
/// API delegates to whichever phase is active, so pipelines are written
/// once and run in either phase.
#[derive(Clone, Debug)]
pub enum CtxView {
    /// The mutable build phase (mutex-guarded state).
    Build(Arc<EvalContext>),
    /// The immutable serve phase (lock-free snapshot reads).
    Frozen(Arc<FrozenContext>),
}

impl CtxView {
    /// A fresh build-phase view over an empty context.
    pub fn new() -> CtxView {
        CtxView::Build(Arc::new(EvalContext::new()))
    }

    /// A serve-phase view: snapshots a build-phase context (see
    /// [`EvalContext::freeze`]); freezing an already-frozen view is a
    /// cheap handle clone.
    #[must_use]
    pub fn freeze(&self) -> CtxView {
        match self {
            CtxView::Build(ctx) => CtxView::Frozen(ctx.freeze()),
            CtxView::Frozen(f) => CtxView::Frozen(Arc::clone(f)),
        }
    }

    /// Whether this view is a frozen snapshot.
    pub fn is_frozen(&self) -> bool {
        matches!(self, CtxView::Frozen(_))
    }

    /// Interns one value.
    #[inline]
    pub fn intern(&self, v: Value) -> ValueId {
        match self {
            CtxView::Build(c) => c.intern(v),
            CtxView::Frozen(f) => f.intern(v),
        }
    }

    /// The id of `v` if the session has seen it (no allocation).
    #[inline]
    pub fn lookup(&self, v: Value) -> Option<ValueId> {
        match self {
            CtxView::Build(c) => c.lookup(v),
            CtxView::Frozen(f) => f.lookup(v),
        }
    }

    /// Decodes one id.
    #[inline]
    pub fn decode(&self, id: ValueId) -> Value {
        match self {
            CtxView::Build(c) => c.decode(id),
            CtxView::Frozen(f) => f.decode(id),
        }
    }

    /// Decodes a sequence of ids into an answer [`Tuple`].
    #[inline]
    pub fn decode_tuple<I>(&self, ids: I) -> Tuple
    where
        I: IntoIterator<Item = ValueId>,
        I::IntoIter: ExactSizeIterator,
    {
        match self {
            CtxView::Build(c) => c.decode_tuple(ids),
            CtxView::Frozen(f) => f.decode_tuple(ids),
        }
    }

    /// Appends `rows` id rows (`width` ids each) to `out` as answer
    /// [`Tuple`]s; nullary rows decode to `rows` empty tuples.
    pub fn decode_rows_into(
        &self,
        width: usize,
        rows: usize,
        ids: &[ValueId],
        out: &mut Vec<Tuple>,
    ) {
        match self {
            CtxView::Build(c) => c.decode_rows_into(width, rows, ids, out),
            CtxView::Frozen(f) => f.decode_rows_into(width, rows, ids, out),
        }
    }

    /// Decodes a flat run of positive-width id rows (`width` ids per row)
    /// into a fresh vector. A nullary table has no ids to count its rows
    /// by; decode it with [`CtxView::decode_rows_into`].
    pub fn decode_rows(&self, width: usize, ids: &[ValueId]) -> Vec<Tuple> {
        let rows = ids.len().checked_div(width).unwrap_or(0);
        let mut out = Vec::with_capacity(rows);
        self.decode_rows_into(width, rows, ids, &mut out);
        out
    }

    /// Decodes an interned relation back to a row-major [`Relation`].
    pub fn decode_rel(&self, rel: &IdRel) -> Relation {
        match self {
            CtxView::Build(c) => c.decode_rel(rel),
            CtxView::Frozen(f) => f.decode_rel(rel),
        }
    }

    /// Looks up every value of `row` into `out` without interning.
    pub fn lookup_row(&self, row: &[Value], out: &mut Vec<ValueId>) -> bool {
        match self {
            CtxView::Build(c) => c.lookup_row(row, out),
            CtxView::Frozen(f) => f.lookup_row(row, out),
        }
    }

    /// Interns a decoded row into an [`InlineKey`].
    pub fn intern_key(&self, row: &[Value]) -> InlineKey {
        match self {
            CtxView::Build(c) => c.intern_key(row),
            CtxView::Frozen(f) => f.intern_key(row),
        }
    }

    /// The interned columnar mirror of `rel`, built on first request.
    pub fn interned_rel(&self, rel: &Arc<Relation>) -> Arc<IdRel> {
        match self {
            CtxView::Build(c) => c.interned_rel(rel),
            CtxView::Frozen(f) => f.interned_rel(rel),
        }
    }

    /// Registers a pre-interned mirror for `rel` (see
    /// [`EvalContext::register_interned`]).
    pub fn register_interned(&self, rel: &Arc<Relation>, id_rel: Arc<IdRel>) {
        match self {
            CtxView::Build(c) => c.register_interned(rel, id_rel),
            CtxView::Frozen(f) => f.register_interned(rel, id_rel),
        }
    }

    /// A relation derived from `rel` by a pure id-level transformation
    /// (see [`EvalContext::derived_rel`]).
    pub fn derived_rel(
        &self,
        rel: &Arc<Relation>,
        sig: &[u32],
        build: impl FnOnce(&IdRel) -> IdRel,
    ) -> Arc<IdRel> {
        match self {
            CtxView::Build(c) => c.derived_rel(rel, sig, build),
            CtxView::Frozen(f) => f.derived_rel(rel, sig, build),
        }
    }

    /// The cached atom-normalization of `rel` under the rank signature
    /// `sig` (see [`EvalContext::normalized_rel`]). On the build side the
    /// entry keeps its dedup set so delta ingestion can carry it over; a
    /// frozen context builds the same rows into its overlay on a miss.
    pub fn normalized_rel(&self, rel: &Arc<Relation>, sig: &[u32]) -> Arc<IdRel> {
        match self {
            CtxView::Build(c) => c.normalized_rel(rel, sig),
            CtxView::Frozen(f) => {
                f.derived_rel(rel, sig, |base| crate::idrel::normalize_ranked(base, sig).0)
            }
        }
    }

    /// The cached index over `rel` keyed on `key_cols`.
    pub fn index(&self, rel: &Arc<IdRel>, key_cols: &[usize]) -> Arc<HashIndex> {
        match self {
            CtxView::Build(c) => c.index(rel, key_cols),
            CtxView::Frozen(f) => f.index(rel, key_cols),
        }
    }

    /// The cached [`RelStats`] of `rel`, computed on first request.
    pub fn rel_stats(&self, rel: &Arc<IdRel>) -> Arc<RelStats> {
        match self {
            CtxView::Build(c) => c.rel_stats(rel),
            CtxView::Frozen(f) => f.rel_stats(rel),
        }
    }

    /// Appends `delta` to `rel`, returning the new handle (see
    /// [`EvalContext::insert_rows`]). Ingestion is a build-phase operation:
    /// frozen snapshots are immutable, so calling this on a frozen view
    /// panics — route deltas through the session's build context and
    /// publish the result with a re-freeze.
    pub fn insert_rows(&self, rel: &Arc<Relation>, delta: &Relation) -> Arc<Relation> {
        match self {
            CtxView::Build(c) => c.insert_rows(rel, delta),
            CtxView::Frozen(_) => {
                panic!("insert_rows on a frozen snapshot: ingest through the build-phase context")
            }
        }
    }

    /// Tombstones every row of `rel` matching a row of `victims`, returning
    /// the new handle (see [`EvalContext::delete_rows`]). Panics on a
    /// frozen view for the same reason as [`CtxView::insert_rows`].
    pub fn delete_rows(&self, rel: &Arc<Relation>, victims: &Relation) -> Arc<Relation> {
        match self {
            CtxView::Build(c) => c.delete_rows(rel, victims),
            CtxView::Frozen(_) => {
                panic!("delete_rows on a frozen snapshot: ingest through the build-phase context")
            }
        }
    }

    /// Segment/tombstone churn of `rel`'s interned mirror, if it has one
    /// (see [`EvalContext::churn_of`]). Frozen snapshots report `None` —
    /// churn is build-phase bookkeeping.
    pub fn churn_of(&self, rel: &Arc<Relation>) -> Option<RelChurn> {
        match self {
            CtxView::Build(c) => c.churn_of(rel),
            CtxView::Frozen(_) => None,
        }
    }

    /// Cumulative ingestion counters (see [`EvalContext::ingest_stats`]).
    /// Frozen snapshots report zeros — ingestion happens pre-freeze.
    pub fn ingest_stats(&self) -> IngestStats {
        match self {
            CtxView::Build(c) => c.ingest_stats(),
            CtxView::Frozen(_) => IngestStats::default(),
        }
    }

    /// The current stats epoch (see [`EvalContext::stats_epoch`]).
    pub fn stats_epoch(&self) -> u64 {
        match self {
            CtxView::Build(c) => c.stats_epoch(),
            CtxView::Frozen(f) => f.stats_epoch(),
        }
    }

    /// The cached plan stored under `(fingerprint, epoch)`, if any.
    pub fn cached_plan(
        &self,
        fingerprint: u64,
        epoch: u64,
    ) -> Option<Arc<dyn std::any::Any + Send + Sync>> {
        match self {
            CtxView::Build(c) => c.cached_plan(fingerprint, epoch),
            CtxView::Frozen(f) => f.cached_plan(fingerprint, epoch),
        }
    }

    /// Stores a type-erased plan under `(fingerprint, epoch)`.
    pub fn store_plan(
        &self,
        fingerprint: u64,
        epoch: u64,
        plan: Arc<dyn std::any::Any + Send + Sync>,
    ) {
        match self {
            CtxView::Build(c) => c.store_plan(fingerprint, epoch, plan),
            CtxView::Frozen(f) => f.store_plan(fingerprint, epoch, plan),
        }
    }

    /// Number of distinct values interned so far.
    pub fn dict_len(&self) -> usize {
        match self {
            CtxView::Build(c) => c.dict_len(),
            CtxView::Frozen(f) => f.dict_len(),
        }
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> ContextStats {
        match self {
            CtxView::Build(c) => c.stats(),
            CtxView::Frozen(f) => f.stats(),
        }
    }
}

impl Default for CtxView {
    fn default() -> CtxView {
        CtxView::new()
    }
}

impl From<Arc<EvalContext>> for CtxView {
    fn from(ctx: Arc<EvalContext>) -> CtxView {
        CtxView::Build(ctx)
    }
}

impl From<&Arc<EvalContext>> for CtxView {
    fn from(ctx: &Arc<EvalContext>) -> CtxView {
        CtxView::Build(Arc::clone(ctx))
    }
}

impl From<Arc<FrozenContext>> for CtxView {
    fn from(f: Arc<FrozenContext>) -> CtxView {
        CtxView::Frozen(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_pairs(pairs: &[(i64, i64)]) -> Arc<Relation> {
        Arc::new(Relation::from_pairs(pairs.iter().copied()))
    }

    #[test]
    fn freeze_preserves_ids_and_caches() {
        let ctx = Arc::new(EvalContext::new());
        let rel = shared_pairs(&[(1, 2), (3, 4)]);
        let id_rel = ctx.interned_rel(&rel);
        let idx = ctx.index(&id_rel, &[0]);
        let id1 = ctx.intern(Value::Int(1));
        let frozen = ctx.freeze();
        // Same ids, same physical cache entries.
        assert_eq!(frozen.lookup(Value::Int(1)), Some(id1));
        assert_eq!(frozen.decode(id1), Value::Int(1));
        assert!(Arc::ptr_eq(&frozen.interned_rel(&rel), &id_rel));
        assert!(Arc::ptr_eq(&frozen.index(&id_rel, &[0]), &idx));
        assert_eq!(frozen.frozen_len(), ctx.dict_len());
        assert!(!frozen.has_overflowed());
    }

    #[test]
    fn post_freeze_misses_fall_back_to_overlay() {
        let ctx = Arc::new(EvalContext::new());
        ctx.intern(Value::Int(1));
        let frozen = ctx.freeze();
        let base = frozen.frozen_len();
        // New value: overlay id at the watermark, decodes correctly.
        let nid = frozen.intern(Value::Int(99));
        assert_eq!(nid.index(), base);
        assert!(frozen.has_overflowed());
        assert_eq!(frozen.decode(nid), Value::Int(99));
        assert_eq!(frozen.lookup(Value::Int(99)), Some(nid));
        assert_eq!(
            frozen.intern(Value::Int(99)),
            nid,
            "overlay interning is stable"
        );
        assert_eq!(frozen.dict_len(), base + 1);
        // The build-phase context is not poisoned by overlay activity.
        assert_eq!(ctx.lookup(Value::Int(99)), None);
        // A relation never seen before the freeze interns via the overlay
        // and caches there.
        let rel = shared_pairs(&[(99, 100), (1, 1)]);
        let a = frozen.interned_rel(&rel);
        let b = frozen.interned_rel(&rel);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(frozen.decode_rel(&a).len(), 2);
        let idx = frozen.index(&a, &[0]);
        assert!(Arc::ptr_eq(&idx, &frozen.index(&a, &[0])));
    }

    #[test]
    fn view_freeze_roundtrip() {
        let view = CtxView::new();
        let rel = shared_pairs(&[(7, 8)]);
        let id_rel = view.interned_rel(&rel);
        let frozen = view.freeze();
        assert!(frozen.is_frozen() && !view.is_frozen());
        assert!(Arc::ptr_eq(&frozen.interned_rel(&rel), &id_rel));
        let tup = frozen.decode_tuple([id_rel.at(0, 0), id_rel.at(0, 1)]);
        assert_eq!(tup, Tuple::from_row(&[Value::Int(7), Value::Int(8)]));
        // Freezing a frozen view shares the same snapshot.
        match (&frozen, &frozen.freeze()) {
            (CtxView::Frozen(a), CtxView::Frozen(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nullary_rows_decode_to_one_empty_tuple_each_on_both_views() {
        let build = CtxView::new();
        let frozen = build.freeze();
        for view in [&build, &frozen] {
            let mut out = vec![Tuple::from(&[1i64][..])];
            view.decode_rows_into(0, 3, &[], &mut out);
            assert_eq!(out[1..], [Tuple::empty(), Tuple::empty(), Tuple::empty()]);
            assert_eq!(out.len(), 4, "appended after what was there");
        }
    }

    #[test]
    fn freeze_carries_stats_epoch_and_plans() {
        let ctx = Arc::new(EvalContext::new());
        let rel = shared_pairs(&[(1, 2), (1, 3)]);
        let id_rel = ctx.interned_rel(&rel);
        let stats = ctx.rel_stats(&id_rel);
        let plan: Arc<dyn std::any::Any + Send + Sync> = Arc::new("p".to_string());
        let epoch = ctx.stats_epoch();
        ctx.store_plan(11, epoch, plan);
        let frozen = ctx.freeze();
        assert_eq!(frozen.stats_epoch(), epoch);
        assert!(Arc::ptr_eq(&frozen.rel_stats(&id_rel), &stats));
        assert!(frozen.cached_plan(11, epoch).is_some());
        // Post-freeze misses compute/store in the overlay; a new interned
        // relation bumps the frozen epoch.
        let other = shared_pairs(&[(5, 6)]);
        let other_ids = frozen.interned_rel(&other);
        assert!(frozen.stats_epoch() > epoch);
        let s = frozen.rel_stats(&other_ids);
        assert_eq!(s.rows, 1);
        assert!(Arc::ptr_eq(&frozen.rel_stats(&other_ids), &s));
        frozen.store_plan(12, frozen.stats_epoch(), Arc::new(1usize));
        assert!(frozen.cached_plan(12, frozen.stats_epoch()).is_some());
    }

    #[test]
    fn concurrent_overlay_interning_is_consistent() {
        let ctx = Arc::new(EvalContext::new());
        ctx.intern(Value::Int(0));
        let frozen = ctx.freeze();
        let ids: Vec<ValueId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| frozen.intern(Value::Int(424242))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "one id per value across threads"
        );
        assert_eq!(frozen.decode(ids[0]), Value::Int(424242));
    }
}
