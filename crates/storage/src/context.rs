//! Per-instance evaluation contexts: one dictionary, one set of caches.
//!
//! Every evaluation pipeline in the workspace (Algorithm 1, the Theorem 12
//! union pipeline, the CDY membership tester, the naive baseline) used to
//! re-intern, re-normalize and re-index the same stored relations once per
//! member CQ and once per call. [`EvalContext`] is the session object that
//! makes that work shared:
//!
//! * a [`Dictionary`] interning all values seen by the session;
//! * an interned-relation cache: the columnar [`IdRel`] mirror of each
//!   stored [`Relation`], built once per relation;
//! * a derived-relation cache: atom-normalized projections (sorted columns,
//!   repeated-variable filtering) keyed by `(relation, signature)` — shared
//!   whenever two atoms, possibly in *different* member CQs, read the same
//!   relation with the same argument shape;
//! * an [`IndexCache`]: [`HashIndex`]es keyed by `(relation, key_cols)`,
//!   shared across member CQs and across repeated evaluations.
//!
//! Relations are identified by the address of their shared
//! [`Arc<Relation>`] handle (instances hand out [`Arc`]s; overlay instances
//! share them), and every cache entry holds a clone of the `Arc`, so an
//! address can never be reused while it is a cache key.
//!
//! Contexts have a two-phase lifecycle. During the **build phase** an
//! `EvalContext` guards its state with an (uncontended) mutex, so it is
//! `Send + Sync`. [`EvalContext::freeze`] then snapshots the dictionary and
//! caches into an immutable [`crate::FrozenContext`] for the **serve
//! phase**: reads on the frozen snapshot take no lock at all, so any number
//! of enumeration threads can decode, probe and dedup against it
//! concurrently (see [`crate::CtxView`]).

use crate::dictionary::{Dictionary, ValueId};
use crate::frozen::FrozenContext;
use crate::hash::FastMap;
use crate::idrel::{normalize_ranked, normalize_ranked_append, IdRel, IdSet};
use crate::index::{HashIndex, RowSet};
use crate::key::InlineKey;
use crate::relation::Relation;
use crate::stats::RelStats;
use crate::sync::{lock_unpoisoned, Mutex, MutexGuard};
use crate::tuple::{decode_exact, extend_decoded, Tuple};
use crate::value::Value;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Cache-hit/miss counters (diagnostics; also used by tests to assert
/// sharing actually happens).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Interned-relation cache hits.
    pub interned_hits: usize,
    /// Interned-relation cache misses (builds).
    pub interned_builds: usize,
    /// Derived-relation cache hits.
    pub derived_hits: usize,
    /// Derived-relation cache misses (builds).
    pub derived_builds: usize,
    /// Index cache hits.
    pub index_hits: usize,
    /// Index cache misses (builds).
    pub index_builds: usize,
}

/// Counters over the session's delta-ingestion traffic
/// ([`EvalContext::insert_rows`]/[`EvalContext::delete_rows`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// `insert_rows` calls that changed anything.
    pub inserts: usize,
    /// `delete_rows` calls that changed anything.
    pub deletes: usize,
    /// Rows appended across all deltas.
    pub rows_inserted: usize,
    /// Rows removed (value level) across all deletes.
    pub rows_deleted: usize,
    /// Cached indexes carried to a successor mirror by CSR merge instead
    /// of being rebuilt.
    pub indexes_merged: usize,
    /// Cached normalizations carried to a successor mirror by delta-append
    /// ([`normalize_ranked_append`]) instead of being rebuilt.
    pub derived_carried: usize,
    /// Stats-epoch bumps forced by cumulative churn crossing the
    /// re-planning threshold.
    pub epoch_bumps: usize,
}

/// Per-relation churn diagnostics read off the interned mirror and the
/// index cache — the numbers `ucq explain` reports so segment/tombstone
/// bloat and index sharing are observable.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RelChurn {
    /// CSR/columnar segments (base build + appended deltas).
    pub segments: usize,
    /// Live (visible) rows.
    pub live_rows: usize,
    /// Tombstoned rows still occupying physical slots.
    pub dead_rows: usize,
    /// `dead / (live + dead)`.
    pub tombstone_fraction: f64,
    /// The indexes cached over this relation's mirror and normalizations:
    /// how they got there and how often they were reused.
    pub indexes: IndexUse,
}

/// How the cached indexes of one relation came to be, summed over its
/// mirror and every normalization of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexUse {
    /// Hashed from scratch.
    pub builds: usize,
    /// Requests answered by an index already cached.
    pub hits: usize,
    /// Carried across a delta by [`HashIndex::merge_appended`].
    pub merged: usize,
}

/// Cumulative churn on one relation lineage since its last stats-epoch
/// bump; when `churned` reaches [`CHURN_REPLAN_PERCENT`] of `base`, the
/// epoch bumps so cached plans go stale and the planner re-costs against
/// fresh statistics.
#[derive(Clone, Copy, Debug, Default)]
struct IngestLedger {
    churned: usize,
    base: usize,
}

/// Re-plan once cumulative churn reaches this percentage of the base
/// cardinality the current plan generation was costed against.
pub const CHURN_REPLAN_PERCENT: usize = 25;

/// A cache key: relation identity (pinned `Arc` address) plus key columns.
pub(crate) type IndexKey = (usize, Box<[usize]>);
/// A cache entry: the pinning handle and the shared index.
pub(crate) type IndexEntry = (Arc<IdRel>, Arc<HashIndex>);
/// A stats-cache entry: the pinning handle and the shared stats.
pub(crate) type StatsEntry = (Arc<IdRel>, Arc<RelStats>);
/// A plan-cache key: `(query fingerprint, stats epoch)`.
pub(crate) type PlanKey = (u64, u64);

/// A type-erased cached plan. The planner lives downstream of storage, so
/// the context stores plans as `Arc<dyn Any>` and the planner downcasts on
/// retrieval; this wrapper exists only to give the cache maps a `Debug`
/// impl.
#[derive(Clone)]
pub(crate) struct PlanSlot(pub(crate) Arc<dyn Any + Send + Sync>);

impl fmt::Debug for PlanSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanSlot(..)")
    }
}

/// A build-phase cache entry: the pinning handle, the shared index, and
/// what the cache did for this lineage so far.
#[derive(Debug)]
struct CachedIndex {
    pin: Arc<IdRel>,
    idx: Arc<HashIndex>,
    used: IndexUse,
}

/// An index cache: `(relation identity, key columns) → Arc<HashIndex>`.
///
/// Requesting the same `(relation, key_cols)` twice returns the *same*
/// index object (`Arc::ptr_eq`), so a union's member pipelines and repeated
/// session evaluations share one physical index.
#[derive(Debug, Default)]
pub struct IndexCache {
    map: FastMap<IndexKey, CachedIndex>,
    hits: usize,
    builds: usize,
}

impl IndexCache {
    /// The index over `rel` keyed on `key_cols`, building it on first
    /// request.
    pub fn get_or_build(&mut self, rel: &Arc<IdRel>, key_cols: &[usize]) -> Arc<HashIndex> {
        let key = (Arc::as_ptr(rel) as usize, key_cols.into());
        if let Some(entry) = self.map.get_mut(&key) {
            self.hits += 1;
            entry.used.hits += 1;
            return Arc::clone(&entry.idx);
        }
        self.builds += 1;
        let idx = Arc::new(HashIndex::build(rel, key_cols));
        let entry = CachedIndex {
            pin: Arc::clone(rel),
            idx: Arc::clone(&idx),
            used: IndexUse {
                builds: 1,
                ..IndexUse::default()
            },
        };
        self.map.insert(key, entry);
        idx
    }

    /// Number of cached indexes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A copy of the cache map, for [`EvalContext::freeze`].
    pub(crate) fn snapshot(&self) -> FastMap<IndexKey, IndexEntry> {
        self.map
            .iter()
            .map(|(k, e)| (k.clone(), (Arc::clone(&e.pin), Arc::clone(&e.idx))))
            .collect()
    }

    /// The cached index for `(rel_ptr, key_cols)` if one was already built
    /// (no build, no counter bump) — the stats harvester's peek.
    pub(crate) fn peek(&self, rel_ptr: usize, key_cols: &[usize]) -> Option<&Arc<HashIndex>> {
        self.map.get(&(rel_ptr, key_cols.into())).map(|e| &e.idx)
    }

    /// What the cache did for the relations at `rel_ptrs`, summed over
    /// their key-column sets.
    fn used(&self, rel_ptrs: &[usize]) -> IndexUse {
        let mut sum = IndexUse::default();
        for ((p, _), e) in &self.map {
            if rel_ptrs.contains(p) {
                sum.builds += e.used.builds;
                sum.hits += e.used.hits;
                sum.merged += e.used.merged;
            }
        }
        sum
    }

    /// Drops every cached index of the relation at `rel_ptr` (a
    /// normalization its base relation's churn made unreachable), so the
    /// cache stops pinning it.
    fn evict(&mut self, rel_ptr: usize) {
        self.map.retain(|(p, _), _| *p != rel_ptr);
    }

    /// Carries every cached index of the relation at `old_ptr` (a mirror
    /// or a normalization) over to its churned successor `new_rel` via
    /// [`HashIndex::merge_appended`] — O(Δ + arena) per index, re-hashing
    /// only delta rows. The old entries are dropped from this
    /// (build-phase) cache; frozen epochs hold their own snapshot of the
    /// map, so in-flight readers keep probing the old indexes untouched.
    /// Returns the number of indexes merged.
    pub(crate) fn reseed_merged(
        &mut self,
        old_ptr: usize,
        new_rel: &Arc<IdRel>,
        old_rows: usize,
    ) -> usize {
        let keys: Vec<IndexKey> = self
            .map
            .keys()
            .filter(|(p, _)| *p == old_ptr)
            .cloned()
            .collect();
        let new_ptr = Arc::as_ptr(new_rel) as usize;
        let mut merged = 0usize;
        for key in keys {
            let old = self.map.remove(&key).expect("key listed above");
            let entry = CachedIndex {
                pin: Arc::clone(new_rel),
                idx: Arc::new(old.idx.merge_appended(new_rel, old_rows)),
                used: IndexUse {
                    merged: old.used.merged + 1,
                    ..old.used
                },
            };
            self.map.insert((new_ptr, key.1), entry);
            merged += 1;
        }
        merged
    }
}

/// A cached normalization: the derived relation, plus — for entries built
/// through [`EvalContext::normalized_rel`] — the dedup set that makes the
/// entry delta-appendable when its base relation churns. Closure-built
/// entries ([`EvalContext::derived_rel`]) carry `None`.
type DerivedEntry = (Arc<IdRel>, Option<Arc<IdSet>>);

#[derive(Debug, Default)]
struct Inner {
    dict: Dictionary,
    /// The most recent frozen snapshot of the dictionary. The dictionary
    /// is append-only, so an unchanged length means unchanged content:
    /// epoch re-freezes that interned no new values share this `Arc`
    /// instead of re-copying the whole table.
    dict_snapshot: Option<Arc<Dictionary>>,
    /// `Arc<Relation>` address → interned columnar mirror. The held `Arc`
    /// pins the address.
    interned: FastMap<usize, (Arc<Relation>, Arc<IdRel>)>,
    /// `(Arc<Relation>` address, normalization signature) → derived
    /// relation. The base relation is pinned by `interned`. Entries built
    /// through [`EvalContext::normalized_rel`] also keep their dedup set,
    /// which is what lets [`EvalContext::insert_rows`] carry them to a
    /// churned successor by re-normalizing only the delta segment
    /// ([`normalize_ranked_append`]); closure-built entries
    /// ([`EvalContext::derived_rel`]) have no set and are dropped on churn.
    derived: FastMap<(usize, Box<[u32]>), DerivedEntry>,
    indexes: IndexCache,
    /// `Arc<IdRel>` address → cached [`RelStats`]. The held `Arc` pins the
    /// address.
    rel_stats: FastMap<usize, StatsEntry>,
    /// `(query fingerprint, stats epoch)` → type-erased plan.
    plans: FastMap<PlanKey, PlanSlot>,
    /// Bumped whenever the set of interned relations changes; plan-cache
    /// keys carry it, so a changed instance invalidates stale plans.
    epoch: u64,
    /// Successor `Arc<Relation>` address → churn accumulated on that
    /// lineage since its last epoch bump.
    churn: FastMap<usize, IngestLedger>,
    ingest: IngestStats,
    interned_hits: usize,
    interned_builds: usize,
    derived_hits: usize,
    derived_builds: usize,
}

impl Inner {
    /// Removes and returns every cached normalization of the relation at
    /// `rel_key` (its churn leaves them unreachable under that key).
    fn take_derived(&mut self, rel_key: usize) -> Vec<(Box<[u32]>, DerivedEntry)> {
        self.derived
            .extract_if(|(p, _), _| *p == rel_key)
            .map(|((_, sig), entry)| (sig, entry))
            .collect()
    }

    /// Moves the churn ledger from `old_key` to `new_key`, adding
    /// `changed` churned rows. A fresh lineage starts from `base_before`
    /// (the pre-change live cardinality — what any cached plan was costed
    /// against). Crossing [`CHURN_REPLAN_PERCENT`] bumps the stats epoch
    /// and re-bases the ledger on `live_now`.
    fn note_churn(
        &mut self,
        old_key: usize,
        new_key: usize,
        changed: usize,
        base_before: usize,
        live_now: usize,
    ) {
        let mut led = self.churn.remove(&old_key).unwrap_or(IngestLedger {
            churned: 0,
            base: base_before,
        });
        led.churned += changed;
        if led.churned * 100 >= led.base.max(1) * CHURN_REPLAN_PERCENT {
            self.epoch += 1;
            self.ingest.epoch_bumps += 1;
            led = IngestLedger {
                churned: 0,
                base: live_now,
            };
        }
        self.churn.insert(new_key, led);
    }
}

/// The per-instance evaluation session state. See the module docs.
///
/// Build-phase contexts are `Send + Sync` (state behind an uncontended
/// mutex); the lock-free serve-phase view is [`crate::FrozenContext`],
/// produced by [`EvalContext::freeze`].
#[derive(Debug)]
pub struct EvalContext {
    inner: Mutex<Inner>,
}

impl EvalContext {
    /// A fresh context with an empty dictionary and empty caches.
    pub fn new() -> EvalContext {
        EvalContext {
            inner: Mutex::new(Inner {
                dict: Dictionary::new(),
                ..Inner::default()
            }),
        }
    }

    /// The state lock. Recovers from poisoning: every mutation below is an
    /// append-only cache insert, so a panicked peer cannot leave the maps
    /// in a torn state worth abandoning the session over.
    #[inline]
    fn lock(&self) -> MutexGuard<'_, Inner> {
        lock_unpoisoned(&self.inner, "the EvalContext interner/index state")
    }

    /// An immutable snapshot of the dictionary and all three caches — the
    /// serve-phase handle. Cheap relative to preprocessing: the cache maps
    /// hold `Arc`s (shallow clones) and the dictionary is one table copy,
    /// paid only when it actually grew since the previous freeze — the
    /// dictionary is append-only, so an unchanged length means unchanged
    /// content and an epoch re-freeze that interned nothing new shares the
    /// previous snapshot `Arc`. The snapshot and this context do not
    /// alias: values interned here *after* the freeze are unknown to the
    /// snapshot and vice versa.
    pub fn freeze(&self) -> Arc<FrozenContext> {
        let mut inner = self.lock();
        let dict = match &inner.dict_snapshot {
            Some(snap) if snap.len() == inner.dict.len() => Arc::clone(snap),
            _ => {
                let snap = Arc::new(inner.dict.clone());
                inner.dict_snapshot = Some(Arc::clone(&snap));
                snap
            }
        };
        // The frozen side never churns, so it keeps only the derived
        // relations, not their dedup sets.
        let derived = inner
            .derived
            .iter()
            .map(|(k, (r, _))| (k.clone(), Arc::clone(r)))
            .collect();
        Arc::new(FrozenContext::from_parts(
            dict,
            inner.interned.clone(),
            derived,
            inner.indexes.snapshot(),
            inner.rel_stats.clone(),
            inner.plans.clone(),
            inner.epoch,
            ContextStats {
                interned_hits: inner.interned_hits,
                interned_builds: inner.interned_builds,
                derived_hits: inner.derived_hits,
                derived_builds: inner.derived_builds,
                index_hits: inner.indexes.hits,
                index_builds: inner.indexes.builds,
            },
        ))
    }

    /// Interns one value.
    #[inline]
    pub fn intern(&self, v: Value) -> ValueId {
        self.lock().dict.intern(v)
    }

    /// The id of `v` if the session has seen it (no allocation).
    #[inline]
    pub fn lookup(&self, v: Value) -> Option<ValueId> {
        self.lock().dict.lookup(v)
    }

    /// Decodes one id.
    #[inline]
    pub fn decode(&self, id: ValueId) -> Value {
        self.lock().dict.value(id)
    }

    /// Decodes a sequence of ids into an answer [`Tuple`] under a single
    /// dictionary lock.
    #[inline]
    pub fn decode_tuple<I>(&self, ids: I) -> Tuple
    where
        I: IntoIterator<Item = ValueId>,
        I::IntoIter: ExactSizeIterator,
    {
        let inner = self.lock();
        decode_exact(ids, |id| inner.dict.value(id))
    }

    /// Appends `rows` id rows (`width` ids each, row-major in `ids`) to
    /// `out` as answer [`Tuple`]s under a **single** dictionary lock — the
    /// bulk analogue of [`EvalContext::decode_tuple`]. Nullary rows carry
    /// no ids; they decode to `rows` empty tuples.
    pub fn decode_rows_into(
        &self,
        width: usize,
        rows: usize,
        ids: &[ValueId],
        out: &mut Vec<Tuple>,
    ) {
        let inner = self.lock();
        extend_decoded(out, width, rows, ids, |id| inner.dict.value(id));
    }

    /// Decodes an interned relation back to a row-major [`Relation`] under
    /// a single dictionary lock (answer-boundary only).
    pub fn decode_rel(&self, rel: &IdRel) -> Relation {
        rel.decode(&self.lock().dict)
    }

    /// Looks up every value of `row` into `out` (cleared first) without
    /// interning; returns `false` if any value is unknown to the session —
    /// in which case it cannot occur in any cached relation.
    pub fn lookup_row(&self, row: &[Value], out: &mut Vec<ValueId>) -> bool {
        let inner = self.lock();
        out.clear();
        for &v in row {
            match inner.dict.lookup(v) {
                Some(id) => out.push(id),
                None => return false,
            }
        }
        true
    }

    /// Interns a decoded row into an [`InlineKey`] (used for answer-side
    /// dedup without boxing small tuples).
    pub fn intern_key(&self, row: &[Value]) -> InlineKey {
        let mut inner = self.lock();
        let mut buf = [ValueId::BOTTOM; InlineKey::INLINE];
        if row.len() <= InlineKey::INLINE {
            for (slot, &v) in buf.iter_mut().zip(row) {
                *slot = inner.dict.intern(v);
            }
            InlineKey::Inline {
                len: row.len() as u8,
                ids: buf,
            }
        } else {
            InlineKey::Spilled(row.iter().map(|&v| inner.dict.intern(v)).collect())
        }
    }

    /// The interned columnar mirror of `rel`, built on first request.
    pub fn interned_rel(&self, rel: &Arc<Relation>) -> Arc<IdRel> {
        let key = Arc::as_ptr(rel) as usize;
        let mut inner = self.lock();
        if let Some(id_rel) = inner.interned.get(&key).map(|(_pin, r)| Arc::clone(r)) {
            inner.interned_hits += 1;
            return id_rel;
        }
        inner.interned_builds += 1;
        inner.epoch += 1;
        let built = {
            let inner = &mut *inner;
            Arc::new(IdRel::from_relation(rel, &mut inner.dict))
        };
        inner
            .interned
            .insert(key, (Arc::clone(rel), Arc::clone(&built)));
        built
    }

    /// Registers a pre-interned mirror for `rel`, so later
    /// [`EvalContext::interned_rel`] requests hit the cache instead of
    /// re-interning every cell. Used by pipelines that *produce* a
    /// relation on the id layer (Lemma 8 materialization) and hand the
    /// decoded value form to an instance: the ids are already under this
    /// context's dictionary, so the decode → re-intern round trip is pure
    /// waste. `id_rel` must be the row-for-row mirror of `rel` under this
    /// context's dictionary.
    pub fn register_interned(&self, rel: &Arc<Relation>, id_rel: Arc<IdRel>) {
        debug_assert_eq!(
            rel.len(),
            id_rel.live_len(),
            "mirror must match live row count"
        );
        let key = Arc::as_ptr(rel) as usize;
        let mut inner = self.lock();
        // No epoch bump: registrations are pipeline-produced mirrors of
        // derived data (Lemma 8 materializations), not new base relations —
        // bumping here would invalidate the plan cache on every prepare.
        inner.interned.insert(key, (Arc::clone(rel), id_rel));
    }

    /// A relation derived from `rel` by a pure id-level transformation
    /// described by `sig` (e.g. an atom-normalization signature): cached by
    /// `(relation, sig)`, built by `build` from the interned mirror on
    /// first request.
    pub fn derived_rel(
        &self,
        rel: &Arc<Relation>,
        sig: &[u32],
        build: impl FnOnce(&IdRel) -> IdRel,
    ) -> Arc<IdRel> {
        let key = (Arc::as_ptr(rel) as usize, sig.into());
        if let Some(found) = {
            let mut inner = self.lock();
            let found = inner.derived.get(&key).map(|(r, _)| Arc::clone(r));
            if found.is_some() {
                inner.derived_hits += 1;
            }
            found
        } {
            return found;
        }
        // Build outside the lock: `build` is pure id-level work on the
        // interned base, but callers may re-enter the context (e.g. for
        // nested lookups).
        let base = self.interned_rel(rel);
        let built = Arc::new(build(&base));
        let mut inner = self.lock();
        inner.derived_builds += 1;
        Arc::clone(&inner.derived.entry(key).or_insert((built, None)).0)
    }

    /// The cached atom-normalization of `rel` under the rank signature
    /// `sig` ([`normalize_ranked`]): rows whose repeated positions agree,
    /// projected to one column per distinct rank, deduplicated. Shares the
    /// `(relation, sig)` cache with [`EvalContext::derived_rel`], but also
    /// keeps the dedup set, so [`EvalContext::insert_rows`] can carry the
    /// entry across a delta append by normalizing only the delta segment
    /// instead of re-hashing the whole relation.
    pub fn normalized_rel(&self, rel: &Arc<Relation>, sig: &[u32]) -> Arc<IdRel> {
        let key = (Arc::as_ptr(rel) as usize, sig.into());
        if let Some(found) = {
            let mut inner = self.lock();
            let found = inner.derived.get(&key).map(|(r, _)| Arc::clone(r));
            if found.is_some() {
                inner.derived_hits += 1;
            }
            found
        } {
            return found;
        }
        // Build outside the lock (`interned_rel` takes it internally).
        let base = self.interned_rel(rel);
        let (out, seen) = normalize_ranked(&base, sig);
        let mut inner = self.lock();
        inner.derived_builds += 1;
        Arc::clone(
            &inner
                .derived
                .entry(key)
                .or_insert((Arc::new(out), Some(Arc::new(seen))))
                .0,
        )
    }

    /// The cached index over `rel` keyed on `key_cols` (see [`IndexCache`]).
    pub fn index(&self, rel: &Arc<IdRel>, key_cols: &[usize]) -> Arc<HashIndex> {
        self.lock().indexes.get_or_build(rel, key_cols)
    }

    /// Appends `delta` to `rel`, returning the successor `Arc<Relation>`
    /// handle. When `rel` is interned the *hashing* is O(Δ): only the
    /// delta's cells are interned ([`IdRel::append_delta`]), normalizations
    /// kept with their dedup set re-normalize only the delta segment, and
    /// every index cached on the mirror or on a carried normalization is
    /// merged, not rebuilt ([`HashIndex::merge_appended`]). The call as a
    /// whole is O(n) all the same: the value relation, the mirror, each
    /// carried normalization (with its dedup set) and each merged index's
    /// key map and arena are copied — memcpy-speed passes, so that epochs
    /// already frozen keep reading their own versions. The fresh `Arc`
    /// identity invalidates exactly this relation's stats entries and
    /// closure-built derivations (cache keys are `Arc` addresses).
    ///
    /// Cumulative churn past [`CHURN_REPLAN_PERCENT`] of the relation's
    /// base cardinality bumps the stats epoch, so stale cost-based plans
    /// are re-costed. An empty delta returns `rel` unchanged.
    pub fn insert_rows(&self, rel: &Arc<Relation>, delta: &Relation) -> Arc<Relation> {
        assert_eq!(delta.arity(), rel.arity(), "delta arity mismatch");
        if delta.is_empty() {
            return Arc::clone(rel);
        }
        let mut next = (**rel).clone();
        for row in delta.iter_rows() {
            next.push_row(row);
        }
        let next = Arc::new(next);
        let mut inner = self.lock();
        let inner = &mut *inner;
        inner.ingest.inserts += 1;
        inner.ingest.rows_inserted += delta.len();
        let old_key = Arc::as_ptr(rel) as usize;
        let new_key = Arc::as_ptr(&next) as usize;
        if let Some((_pin, old_mirror)) = inner.interned.remove(&old_key) {
            let base_before = old_mirror.live_len();
            let old_rows = old_mirror.len();
            let old_mirror_ptr = Arc::as_ptr(&old_mirror) as usize;
            let mut mirror = (*old_mirror).clone();
            mirror.append_delta(delta, &mut inner.dict);
            let mirror = Arc::new(mirror);
            inner
                .interned
                .insert(new_key, (Arc::clone(&next), Arc::clone(&mirror)));
            inner.ingest.indexes_merged +=
                inner
                    .indexes
                    .reseed_merged(old_mirror_ptr, &mirror, old_rows);
            // Normalizations built with their dedup set carry over: append
            // the delta segment's normalization to a copy of the old entry
            // ([`normalize_ranked_append`] is prefix-compositional), and
            // merge the indexes cached on it the same way the mirror's
            // are — the old rows are a prefix of the successor — so the
            // successor's first prepare re-hashes Δ rows, not the relation.
            // Closure-built entries (no set) are rebuilt on demand.
            for (sig, (drel, dseen)) in inner.take_derived(old_key) {
                let old_ptr = Arc::as_ptr(&drel) as usize;
                let Some(dseen) = dseen else {
                    inner.indexes.evict(old_ptr);
                    continue;
                };
                let mut out = (*drel).clone();
                let mut seen = (*dseen).clone();
                normalize_ranked_append(&mirror, &sig, old_rows, &mut out, &mut seen);
                let out = Arc::new(out);
                inner.ingest.indexes_merged +=
                    inner.indexes.reseed_merged(old_ptr, &out, drel.len());
                inner.ingest.derived_carried += 1;
                inner
                    .derived
                    .insert((new_key, sig), (out, Some(Arc::new(seen))));
            }
            inner.rel_stats.remove(&old_mirror_ptr);
            inner.note_churn(
                old_key,
                new_key,
                delta.len(),
                base_before,
                mirror.live_len(),
            );
        } else {
            // Never interned: nothing cached to carry. The first
            // `interned_rel` on the successor pays the (full) build and
            // bumps the epoch as any new base relation does.
            inner.note_churn(old_key, new_key, delta.len(), rel.len(), next.len());
        }
        next
    }

    /// Removes every row of `rel` equal to a row of `victims`, returning
    /// the successor `Arc<Relation>` handle. The value-level successor is
    /// compact; the interned mirror keeps its physical layout and marks
    /// the victims in a tombstone bitmap ([`IdRel::mark_deleted_where`]),
    /// so cached CSR indexes merge over ([`HashIndex::merge_appended`]
    /// drops dead rows from the arena) instead of rebuilding. Victim rows
    /// containing values the session never interned match nothing. An
    /// empty victim set returns `rel` unchanged.
    pub fn delete_rows(&self, rel: &Arc<Relation>, victims: &Relation) -> Arc<Relation> {
        assert_eq!(victims.arity(), rel.arity(), "victim arity mismatch");
        if victims.is_empty() {
            return Arc::clone(rel);
        }
        let victim_set = RowSet::build(victims);
        let mut next = (**rel).clone();
        next.retain_rows(|row| !victim_set.contains(row));
        let removed = rel.len() - next.len();
        let next = Arc::new(next);
        let mut inner = self.lock();
        let inner = &mut *inner;
        inner.ingest.deletes += 1;
        inner.ingest.rows_deleted += removed;
        let old_key = Arc::as_ptr(rel) as usize;
        let new_key = Arc::as_ptr(&next) as usize;
        if let Some((_pin, old_mirror)) = inner.interned.remove(&old_key) {
            let base_before = old_mirror.live_len();
            let old_rows = old_mirror.len();
            let old_mirror_ptr = Arc::as_ptr(&old_mirror) as usize;
            let mut mirror = (*old_mirror).clone();
            // Id-level victim keys through lookup only: values the session
            // has never seen cannot occur in the mirror.
            let mut ids = IdSet::new();
            let mut buf: Vec<ValueId> = Vec::with_capacity(victims.arity());
            'rows: for row in victims.iter_rows() {
                buf.clear();
                for &v in row {
                    match inner.dict.lookup(v) {
                        Some(id) => buf.push(id),
                        None => continue 'rows,
                    }
                }
                ids.insert(&buf);
            }
            let killed = mirror.mark_deleted_where(|row| ids.contains(row));
            debug_assert_eq!(killed, removed, "mirror and value rows agree");
            let mirror = Arc::new(mirror);
            inner
                .interned
                .insert(new_key, (Arc::clone(&next), Arc::clone(&mirror)));
            inner.ingest.indexes_merged +=
                inner
                    .indexes
                    .reseed_merged(old_mirror_ptr, &mirror, old_rows);
            // Derived rows do not map back to base rows, so normalizations
            // (and the indexes cached on them) are rebuilt on demand.
            for (_sig, (drel, _)) in inner.take_derived(old_key) {
                inner.indexes.evict(Arc::as_ptr(&drel) as usize);
            }
            inner.rel_stats.remove(&old_mirror_ptr);
            inner.note_churn(old_key, new_key, killed, base_before, mirror.live_len());
        } else {
            inner.note_churn(old_key, new_key, removed, rel.len(), next.len());
        }
        next
    }

    /// Churn diagnostics for `rel`, if its mirror is interned: segment
    /// count, live/dead rows, tombstone fraction, and the index cache's
    /// work over the mirror and its normalizations.
    pub fn churn_of(&self, rel: &Arc<Relation>) -> Option<RelChurn> {
        let inner = self.lock();
        let key = Arc::as_ptr(rel) as usize;
        let (_pin, m) = inner.interned.get(&key)?;
        let mut ptrs = vec![Arc::as_ptr(m) as usize];
        ptrs.extend(
            inner
                .derived
                .iter()
                .filter(|((p, _), _)| *p == key)
                .map(|(_, (drel, _))| Arc::as_ptr(drel) as usize),
        );
        Some(RelChurn {
            segments: m.n_segments(),
            live_rows: m.live_len(),
            dead_rows: m.n_dead(),
            tombstone_fraction: m.tombstone_fraction(),
            indexes: inner.indexes.used(&ptrs),
        })
    }

    /// Snapshot of the delta-ingestion counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.lock().ingest
    }

    /// The cached [`RelStats`] of `rel`, computed on first request. Columns
    /// with an already-built single-column index are harvested straight off
    /// its CSR offsets; the rest are counted in one pass per column.
    pub fn rel_stats(&self, rel: &Arc<IdRel>) -> Arc<RelStats> {
        let key = Arc::as_ptr(rel) as usize;
        let mut inner = self.lock();
        if let Some((_pin, s)) = inner.rel_stats.get(&key) {
            return Arc::clone(s);
        }
        let stats = {
            let indexes = &inner.indexes;
            Arc::new(RelStats::compute_with(rel, |c| {
                indexes
                    .peek(key, &[c])
                    .map(|i| RelStats::column_from_index(i))
            }))
        };
        inner
            .rel_stats
            .insert(key, (Arc::clone(rel), Arc::clone(&stats)));
        stats
    }

    /// The current stats epoch: bumped whenever a *new* base relation is
    /// interned, so `(fingerprint, epoch)` plan-cache keys go stale the
    /// moment the underlying instance data changes. Registrations of
    /// derived mirrors do not bump it.
    pub fn stats_epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// The cached plan stored under `(fingerprint, epoch)`, if any. The
    /// planner downcasts the returned `Arc<dyn Any>` to its own plan type.
    pub fn cached_plan(&self, fingerprint: u64, epoch: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        self.lock()
            .plans
            .get(&(fingerprint, epoch))
            .map(|s| Arc::clone(&s.0))
    }

    /// Stores a type-erased plan under `(fingerprint, epoch)`.
    pub fn store_plan(&self, fingerprint: u64, epoch: u64, plan: Arc<dyn Any + Send + Sync>) {
        self.lock()
            .plans
            .insert((fingerprint, epoch), PlanSlot(plan));
    }

    /// Number of distinct values interned so far.
    pub fn dict_len(&self) -> usize {
        self.lock().dict.len()
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> ContextStats {
        let inner = self.lock();
        ContextStats {
            interned_hits: inner.interned_hits,
            interned_builds: inner.interned_builds,
            derived_hits: inner.derived_hits,
            derived_builds: inner.derived_builds,
            index_hits: inner.indexes.hits,
            index_builds: inner.indexes.builds,
        }
    }
}

impl Default for EvalContext {
    fn default() -> EvalContext {
        EvalContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_pairs(pairs: &[(i64, i64)]) -> Arc<Relation> {
        Arc::new(Relation::from_pairs(pairs.iter().copied()))
    }

    #[test]
    fn interned_rel_is_cached() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 2), (3, 4)]);
        let a = ctx.interned_rel(&rel);
        let b = ctx.interned_rel(&rel);
        assert!(Arc::ptr_eq(&a, &b), "same physical IdRel");
        assert_eq!(ctx.stats().interned_builds, 1);
        assert_eq!(ctx.stats().interned_hits, 1);
    }

    #[test]
    fn index_cache_returns_same_object() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 2), (1, 3), (2, 4)]);
        let id_rel = ctx.interned_rel(&rel);
        let a = ctx.index(&id_rel, &[0]);
        let b = ctx.index(&id_rel, &[0]);
        assert!(Arc::ptr_eq(&a, &b), "repeated requests share one index");
        let c = ctx.index(&id_rel, &[1]);
        assert!(!Arc::ptr_eq(&a, &c), "different key_cols, different index");
        let s = ctx.stats();
        assert_eq!(s.index_builds, 2);
        assert_eq!(s.index_hits, 1);
    }

    #[test]
    fn derived_rel_cached_by_signature() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 1), (1, 2)]);
        let build_calls = std::cell::Cell::new(0);
        for _ in 0..3 {
            ctx.derived_rel(&rel, &[0, 0], |base| {
                build_calls.set(build_calls.get() + 1);
                base.project_dedup(&[0])
            });
        }
        assert_eq!(build_calls.get(), 1);
        let other = ctx.derived_rel(&rel, &[0, 1], |base| base.clone());
        assert_eq!(other.arity(), 2);
        assert_eq!(ctx.stats().derived_builds, 2);
    }

    #[test]
    fn distinct_relations_do_not_collide() {
        let ctx = EvalContext::new();
        let a = shared_pairs(&[(1, 2)]);
        let b = shared_pairs(&[(3, 4), (5, 6)]);
        assert_eq!(ctx.interned_rel(&a).len(), 1);
        assert_eq!(ctx.interned_rel(&b).len(), 2);
    }

    #[test]
    fn lookup_row_rejects_unknown_values() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 2)]);
        ctx.interned_rel(&rel);
        let mut buf = Vec::new();
        assert!(ctx.lookup_row(&[Value::Int(1), Value::Int(2)], &mut buf));
        assert_eq!(buf.len(), 2);
        assert!(!ctx.lookup_row(&[Value::Int(99)], &mut buf));
    }

    #[test]
    fn rel_stats_cached_and_harvested() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10), (1, 20), (2, 10)]);
        let id_rel = ctx.interned_rel(&rel);
        // Build a single-column index first so the harvest path is hit.
        ctx.index(&id_rel, &[0]);
        let a = ctx.rel_stats(&id_rel);
        let b = ctx.rel_stats(&id_rel);
        assert!(Arc::ptr_eq(&a, &b), "stats cached by relation identity");
        assert_eq!(a.rows, 3);
        assert_eq!(a.distinct, vec![2, 2]);
        assert_eq!(a.max_fanout, vec![2, 2]);
    }

    #[test]
    fn epoch_bumps_on_intern_but_not_register() {
        let ctx = EvalContext::new();
        let e0 = ctx.stats_epoch();
        let rel = shared_pairs(&[(1, 2)]);
        ctx.interned_rel(&rel);
        let e1 = ctx.stats_epoch();
        assert!(e1 > e0, "interning a new relation bumps the epoch");
        ctx.interned_rel(&rel);
        assert_eq!(ctx.stats_epoch(), e1, "cache hits leave the epoch alone");
        let other = shared_pairs(&[(3, 4)]);
        let mirror = ctx.interned_rel(&other);
        let e2 = ctx.stats_epoch();
        ctx.register_interned(&other, mirror);
        assert_eq!(
            ctx.stats_epoch(),
            e2,
            "registering a derived mirror must not invalidate cached plans"
        );
    }

    #[test]
    fn insert_rows_preseeds_mirror_and_merges_indexes() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10), (2, 20)]);
        let id_rel = ctx.interned_rel(&rel);
        ctx.index(&id_rel, &[0]);
        let before = ctx.stats();
        let next = ctx.insert_rows(&rel, &Relation::from_pairs([(3, 30)]));
        let next_ids = ctx.interned_rel(&next);
        assert_eq!(
            ctx.stats().interned_builds,
            before.interned_builds,
            "the successor mirror is pre-seeded, not re-interned"
        );
        assert_eq!(next_ids.len(), 3);
        assert_eq!(next_ids.n_segments(), 2);
        let idx = ctx.index(&next_ids, &[0]);
        assert_eq!(
            ctx.stats().index_builds,
            before.index_builds,
            "the index is carried by CSR merge, not rebuilt"
        );
        let three = ctx.lookup(Value::Int(3)).unwrap();
        assert_eq!(idx.get(&[three]), &[2]);
        let ing = ctx.ingest_stats();
        assert_eq!(ing.inserts, 1);
        assert_eq!(ing.rows_inserted, 1);
        assert_eq!(ing.indexes_merged, 1);
    }

    #[test]
    fn insert_rows_carries_normalizations_by_delta_append() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10), (2, 20), (2, 2)]);
        // One identity normalization and one repeated-variable shape
        // (`R(x, x)`: keep rows whose columns agree, project to one).
        let ident = ctx.normalized_rel(&rel, &[0, 1]);
        let diag = ctx.normalized_rel(&rel, &[0, 0]);
        assert_eq!(ident.len(), 3);
        assert_eq!(diag.len(), 1, "only (2, 2) survives R(x, x)");
        let builds = ctx.stats().derived_builds;
        // Delta: one fresh row, one duplicate of a live row, one new
        // diagonal row.
        let next = ctx.insert_rows(&rel, &Relation::from_pairs([(3, 30), (1, 10), (7, 7)]));
        assert_eq!(ctx.ingest_stats().derived_carried, 2);
        let ident2 = ctx.normalized_rel(&next, &[0, 1]);
        let diag2 = ctx.normalized_rel(&next, &[0, 0]);
        assert_eq!(
            ctx.stats().derived_builds,
            builds,
            "carried entries hit the cache, nothing is re-normalized"
        );
        assert_eq!(ident2.len(), 5, "the duplicate delta row deduplicates");
        assert_eq!(diag2.len(), 2, "(7, 7) joins the diagonal");
        // The carried entries decode to exactly a from-scratch rebuild.
        let (scratch, _) = crate::idrel::normalize_ranked(&ctx.interned_rel(&next), &[0, 1]);
        assert_eq!(*ident2, scratch);
        let (scratch, _) = crate::idrel::normalize_ranked(&ctx.interned_rel(&next), &[0, 0]);
        assert_eq!(*diag2, scratch);
    }

    #[test]
    fn insert_rows_merges_the_indexes_of_carried_normalizations() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10), (2, 20), (3, 20)]);
        let norm = ctx.normalized_rel(&rel, &[0, 1]);
        ctx.index(&norm, &[1]);
        ctx.index(&norm, &[1]);
        let before = ctx.stats();
        let next = ctx.insert_rows(&rel, &Relation::from_pairs([(4, 20), (5, 50), (1, 10)]));
        assert_eq!(ctx.ingest_stats().indexes_merged, 1);
        let norm2 = ctx.normalized_rel(&next, &[0, 1]);
        let idx = ctx.index(&norm2, &[1]);
        assert_eq!(
            ctx.stats().index_builds,
            before.index_builds,
            "the successor's index was merged, not rebuilt"
        );
        // Row for row what a fresh build over the successor gives.
        let fresh = HashIndex::build(&norm2, &[1]);
        for (key, rows) in fresh.iter() {
            assert_eq!(idx.get(key), rows);
        }
        assert_eq!(idx.n_keys(), fresh.n_keys());
        let twenty = ctx.lookup(Value::Int(20)).unwrap();
        assert_eq!(idx.get(&[twenty]), &[1, 2, 3]);
        // The old normalization is no longer pinned by the index cache.
        assert_eq!(ctx.lock().indexes.len(), 1);
        assert_eq!(
            ctx.churn_of(&next).unwrap().indexes,
            IndexUse {
                builds: 1,
                hits: 2,
                merged: 1
            }
        );
    }

    #[test]
    fn delete_rows_drops_normalizations_for_rebuild() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10), (2, 20)]);
        let norm = ctx.normalized_rel(&rel, &[0, 1]);
        ctx.index(&norm, &[0]);
        let builds = ctx.stats().derived_builds;
        let next = ctx.delete_rows(&rel, &Relation::from_pairs([(1, 10)]));
        assert_eq!(
            ctx.ingest_stats().derived_carried,
            0,
            "deletes cannot carry: derived rows do not map back to base rows"
        );
        assert!(
            ctx.lock().indexes.is_empty(),
            "the dropped entry is unpinned"
        );
        let after = ctx.normalized_rel(&next, &[0, 1]);
        assert_eq!(ctx.stats().derived_builds, builds + 1, "rebuilt on demand");
        assert_eq!(after.len(), 1);
        let one = ctx.lookup(Value::Int(1)).unwrap();
        assert!(!ctx.index(&after, &[0]).contains_key(&[one]));
    }

    #[test]
    fn delete_rows_tombstones_and_emptied_keys_vanish() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10), (2, 20), (2, 21)]);
        let id_rel = ctx.interned_rel(&rel);
        ctx.index(&id_rel, &[0]);
        let next = ctx.delete_rows(&rel, &Relation::from_pairs([(1, 10)]));
        assert_eq!(next.len(), 2, "value level compacts");
        let m = ctx.interned_rel(&next);
        assert_eq!(m.live_len(), 2);
        assert_eq!(m.len(), 3, "mirror keeps physical slots");
        let idx = ctx.index(&m, &[0]);
        let one = ctx.lookup(Value::Int(1)).unwrap();
        assert!(!idx.contains_key(&[one]), "emptied group reads as absent");
        let churn = ctx.churn_of(&next).unwrap();
        assert_eq!(churn.dead_rows, 1);
        assert_eq!(churn.live_rows, 2);
        assert!(churn.tombstone_fraction > 0.0);
        assert_eq!(ctx.ingest_stats().rows_deleted, 1);
    }

    #[test]
    fn delete_of_unknown_values_matches_nothing() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10)]);
        ctx.interned_rel(&rel);
        let next = ctx.delete_rows(&rel, &Relation::from_pairs([(99, 99)]));
        assert_eq!(next.len(), 1);
        assert_eq!(ctx.interned_rel(&next).live_len(), 1);
        assert_eq!(ctx.ingest_stats().rows_deleted, 0);
    }

    #[test]
    fn empty_delta_is_a_no_op_handle() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[(1, 10)]);
        let same = ctx.insert_rows(&rel, &Relation::new(2));
        assert!(Arc::ptr_eq(&rel, &same), "empty delta keeps the handle");
        assert_eq!(ctx.ingest_stats().inserts, 0);
    }

    #[test]
    fn churn_threshold_bumps_epoch_cumulatively() {
        let ctx = EvalContext::new();
        let rel = shared_pairs(&[
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (5, 5),
            (6, 6),
            (7, 7),
        ]);
        ctx.interned_rel(&rel);
        let e0 = ctx.stats_epoch();
        // 1 of 8 rows = 12.5% — below the 25% re-plan threshold.
        let r1 = ctx.insert_rows(&rel, &Relation::from_pairs([(100, 100)]));
        assert_eq!(ctx.stats_epoch(), e0, "small deltas keep plans hot");
        // A second row crosses 25% cumulative churn on the lineage.
        let r2 = ctx.insert_rows(&r1, &Relation::from_pairs([(101, 101)]));
        assert_eq!(ctx.stats_epoch(), e0 + 1, "cumulative churn re-plans");
        assert_eq!(ctx.ingest_stats().epoch_bumps, 1);
        // The ledger re-based on the new cardinality: one more small delta
        // stays below threshold again.
        ctx.insert_rows(&r2, &Relation::from_pairs([(102, 102)]));
        assert_eq!(ctx.stats_epoch(), e0 + 1);
    }

    #[test]
    fn plan_cache_roundtrip() {
        let ctx = EvalContext::new();
        assert!(ctx.cached_plan(7, 0).is_none());
        let plan: Arc<dyn std::any::Any + Send + Sync> = Arc::new(42usize);
        ctx.store_plan(7, 0, plan);
        let got = ctx.cached_plan(7, 0).expect("stored plan");
        assert_eq!(*got.downcast::<usize>().unwrap(), 42);
        assert!(ctx.cached_plan(7, 1).is_none(), "epoch is part of the key");
        assert!(ctx.cached_plan(8, 0).is_none(), "fingerprint is too");
    }

    #[test]
    fn decode_tuple_roundtrips() {
        let ctx = EvalContext::new();
        let ids = [ctx.intern(Value::Int(5)), ctx.intern(Value::Bottom)];
        let t = ctx.decode_tuple(ids.iter().copied());
        assert_eq!(t, Tuple::from_row(&[Value::Int(5), Value::Bottom]));
    }

    #[test]
    fn intern_key_matches_lookup() {
        let ctx = EvalContext::new();
        let k1 = ctx.intern_key(&[Value::Int(1), Value::Int(2)]);
        let k2 = ctx.intern_key(&[Value::Int(1), Value::Int(2)]);
        assert_eq!(k1, k2);
        let k3 = ctx.intern_key(&[Value::Int(2), Value::Int(1)]);
        assert_ne!(k1, k3);
        // Long keys spill but still compare correctly.
        let long: Vec<Value> = (0..6).map(Value::Int).collect();
        assert_eq!(ctx.intern_key(&long), ctx.intern_key(&long));
    }
}
