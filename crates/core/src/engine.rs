//! The top-level engine: classify once, then evaluate instances with the
//! best applicable strategy.
//!
//! Whatever the strategy, the linear phase ends in one value — a
//! `Prepared`: for a tractable union the one pipeline prep
//! ([`UcqPipelinePrep`]: the plan, Lemma 8's virtual relations and the
//! extended members' CDY engines, where a Theorem 4 union's plan is empty),
//! otherwise the naive fallback's answer table — and every way of asking
//! is that value plus what its rung of the ladder adds:
//!
//! * **One-shot** — [`UcqEngine::enumerate`] builds a `Prepared` in a
//!   private context, starts one stream off it and drops it.
//! * **Session** — [`UcqEngine::session`] pins an instance and returns an
//!   [`EvalSession`] that keeps the `Prepared` (and the context: dictionary,
//!   interned relations, normalizations,
//!   [`IndexCache`](ucq_storage::IndexCache)) across calls: repeated
//!   [`EvalSession::enumerate`]s only start streams — the "serve traffic"
//!   shape.
//! * **Frozen session** — [`EvalSession::freeze`] snapshots the context and
//!   retargets the `Prepared` onto the snapshot, warming what readers would
//!   otherwise build: a [`FrozenSession`], `Send + Sync`, drivable from any
//!   number of threads at once with no lock on the per-answer hot path (see
//!   [`ucq_storage::FrozenContext`]). Each [`FrozenSession::enumerate`]
//!   hands the calling thread its own cursors and scratch.
//! * **Next epoch** — [`FrozenSession::refreeze`] rebuilds the parts of the
//!   `Prepared` downstream of a touched relation — virtual relations and
//!   members alike, by one rule — shares the rest, and freezes again.
//!
//! A union under functional dependencies climbs the same ladder: its
//! rewrite ([`crate::fd::fd_rewrite`]) is an ordinary union whose answers
//! are a prefix of its head, and whose members lift that prefix to the
//! whole head to be probed ([`crate::fd::FdRewrite::engine`]).

use crate::algorithm1::{retarget_members, Algorithm1Ids};
use crate::classify::{classify_searched, Classification, Verdict};
use crate::cost::CostedSearch;
use crate::naive_ucq::evaluate_ucq_naive_ids_in;
use crate::pipeline::{Previous, UcqPipelinePrep};
use crate::plan::ExtensionPlan;
use std::sync::Arc;
use ucq_enumerate::{Enumerator, IdDecoder, IdEnumerator, IdVecEnumerator};
use ucq_query::Ucq;
use ucq_storage::sync::{AtomicUsize, OnceLock, Ordering::Relaxed};
use ucq_storage::{CtxView, Instance, Tuple, ValueId};
use ucq_yannakakis::{EvalError, LiftStep};

/// Which evaluation strategy a run used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Algorithm 1 (Theorem 4): all members free-connex; constant writable
    /// memory during enumeration.
    Algorithm1,
    /// The Theorem 12 union-extension pipeline: Lemma 8 materializes the
    /// virtual relations, then Algorithm 1 runs over the extended members.
    UnionExtension,
    /// Materializing fallback for intractable/unknown queries.
    Naive,
}

/// Counters for the cost-based planner, snapshot per session alongside
/// [`ucq_storage::ContextStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Pricing passes over the engine's search (one per plan-cache miss).
    /// The search itself runs once, when the engine classifies.
    pub plans_searched: usize,
    /// Candidate extension sets priced across all pricing passes.
    pub candidates_costed: usize,
    /// Plan-cache hits: `(query fingerprint, stats epoch)` matched a plan
    /// stored by an earlier session over the same context.
    pub plan_cache_hits: usize,
}

/// Interior-mutable planner counters (sessions hand out `&self` streams).
/// Statistics only — they publish nothing, hence `Relaxed`.
#[derive(Default)]
struct PlannerCounters {
    plans_searched: AtomicUsize,
    candidates_costed: AtomicUsize,
    plan_cache_hits: AtomicUsize,
}

impl PlannerCounters {
    fn snapshot(&self) -> PlannerStats {
        PlannerStats {
            plans_searched: self.plans_searched.load(Relaxed),
            candidates_costed: self.candidates_costed.load(Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Relaxed),
        }
    }
}

/// A classified UCQ ready to evaluate instances.
pub struct UcqEngine {
    ucq: Ucq,
    classification: Classification,
    /// Head positions an answer consists of: the whole head, or the prefix
    /// an FD rewrite started from (see [`UcqEngine::projecting`]).
    answer_arity: usize,
    /// Per minimized member, the lookups that derive the head positions
    /// past `answer_arity` (none without FDs).
    lifts: Vec<Vec<LiftStep>>,
    /// The union-extension search classification ran (availability
    /// fixpoint + candidate extension sets), `Some` exactly for a
    /// `FreeConnex` verdict. Every plan-cache miss re-*prices* it; nothing
    /// re-*searches*.
    search: Option<CostedSearch>,
    /// The classifier's certificate, shared, `Some` exactly for a
    /// `FreeConnex` verdict. An empty one is the plan every build of a
    /// Theorem 4 union runs: there is nothing to price, and every epoch
    /// sees the same `Arc`.
    certificate: Option<Arc<ExtensionPlan>>,
}

impl UcqEngine {
    /// Classifies `ucq`.
    pub fn new(ucq: Ucq) -> UcqEngine {
        UcqEngine::projecting(ucq, Vec::new())
    }

    /// Classifies `ucq` and answers with the head positions that
    /// `lifts[i]` does not derive for member `i` — what an FD rewrite
    /// ([`crate::fd::fd_rewrite`]) asks for: members stay connex for their
    /// whole (extended) head and enumerate its first positions. Projected
    /// answers of one member are distinct, because the dropped positions
    /// are functions of the kept ones; across members they need not be
    /// (each may have grown by a different determined variable), so every
    /// member's membership test lifts a projected answer back to its own
    /// head first, and Algorithm 1 interleaves them as usual. No lifts:
    /// the whole head.
    pub(crate) fn projecting(ucq: Ucq, lifts: Vec<Vec<LiftStep>>) -> UcqEngine {
        let (classification, search) = classify_searched(&ucq);
        let kept = classification.kept.iter();
        let kept_lifts: Vec<Vec<LiftStep>> = kept
            .map(|&i| lifts.get(i).cloned().unwrap_or_default())
            .collect();
        let certificate = match &classification.verdict {
            Verdict::FreeConnex { plan } => Some(Arc::new(plan.clone())),
            _ => None,
        };
        UcqEngine {
            answer_arity: ucq.head_arity() - kept_lifts[0].len(),
            ucq,
            classification,
            lifts: kept_lifts,
            search,
            certificate,
        }
    }

    /// The original union.
    pub fn ucq(&self) -> &Ucq {
        &self.ucq
    }

    /// The classification (verdict, statuses, minimized union).
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The union-extension search behind a `FreeConnex` verdict: what
    /// every plan-cache miss re-prices ([`CostedSearch::plan`]).
    pub fn search(&self) -> Option<&CostedSearch> {
        self.search.as_ref()
    }

    /// The relations the minimized union reads, lifts included.
    fn reads(&self) -> impl Iterator<Item = &str> {
        let lifts = self.lifts.iter().flatten().map(|step| step.rel.as_str());
        let minimized = &self.classification.minimized;
        minimized.relation_names().into_iter().chain(lifts)
    }

    /// The strategy [`UcqEngine::enumerate`] runs, read off the verdict:
    /// the naive fallback unless the union is free-connex, otherwise the
    /// one tractable pipeline, reported as Algorithm 1 when its plan is
    /// empty (every member free-connex, Theorem 4) and as the Theorem 12
    /// union extension when Lemma 8 has virtual relations to materialize.
    /// A projecting union (an FD rewrite) reports the same way.
    pub fn strategy(&self) -> Strategy {
        match &self.classification.verdict {
            Verdict::FreeConnex { plan } if plan.needs_extension() => Strategy::UnionExtension,
            Verdict::FreeConnex { .. } => Strategy::Algorithm1,
            _ => Strategy::Naive,
        }
    }

    /// Evaluates over `instance`, returning an answer stream tagged with
    /// the strategy that produced it. `DelayClin` guarantees apply exactly
    /// when the strategy is not [`Strategy::Naive`]. Builds a private
    /// context; use [`UcqEngine::session`] to reuse preprocessing across
    /// repeated evaluations.
    pub fn enumerate(&self, instance: &Instance) -> Result<UcqAnswers, EvalError> {
        self.enumerate_in(&CtxView::new(), instance)
    }

    /// As [`UcqEngine::enumerate`], threading the shared session context
    /// through every member pipeline.
    ///
    /// This is a building block: for *repeated* evaluation of one
    /// instance, use [`UcqEngine::session`] instead — besides skipping
    /// preprocessing, the session prepares the Theorem 12 pipeline once,
    /// whereas calling `enumerate_in` in a loop with one long-lived `ctx`
    /// re-materializes the plan's virtual relations per call and pins each
    /// copy into the context's caches (contexts never evict).
    pub fn enumerate_in(
        &self,
        ctx: &CtxView,
        instance: &Instance,
    ) -> Result<UcqAnswers, EvalError> {
        Ok(Prepared::build(self, ctx, instance, None, None)?.start(self.strategy(), ctx))
    }

    /// The plan a build over `instance` executes, `None` for the naive
    /// fallback. An empty certificate is executed as it is (Theorem 4:
    /// nothing to price); otherwise the cached plan when `(query
    /// fingerprint, stats epoch)` matches, or else a fresh costing pass
    /// over the search classification ran, stored so the next session over
    /// this context skips the pricing too.
    fn plan(
        &self,
        ctx: &CtxView,
        instance: &Instance,
        counters: Option<&PlannerCounters>,
    ) -> Option<Arc<ExtensionPlan>> {
        let certificate = self.certificate.as_ref()?;
        if !certificate.needs_extension() {
            return Some(Arc::clone(certificate));
        }
        let minimized = &self.classification.minimized;
        // Intern every base relation up front: the epoch read below is then
        // stable across the search (stats collection only hits caches), and
        // a repeat session over the same instance reads the same epoch.
        for name in minimized.relation_names() {
            if let Some(rel) = instance.get_shared(name) {
                ctx.interned_rel(&rel);
            }
        }
        let fingerprint = minimized.fingerprint();
        let epoch = ctx.stats_epoch();
        if let Some(cached) = ctx.cached_plan(fingerprint, epoch) {
            if let Ok(plan) = cached.downcast::<ExtensionPlan>() {
                if let Some(c) = counters {
                    c.plan_cache_hits.fetch_add(1, Relaxed);
                }
                return Some(plan);
            }
        }
        if let Some(c) = counters {
            c.plans_searched.fetch_add(1, Relaxed);
        }
        let search = self
            .search()
            .expect("a free-connex verdict keeps its search");
        let costed = search.plan(instance, ctx);
        if let Some(c) = counters {
            c.candidates_costed
                .fetch_add(costed.candidates_costed, Relaxed);
        }
        let plan = Arc::new(costed.plan);
        ctx.store_plan(fingerprint, epoch, plan.clone());
        Some(plan)
    }

    /// Opens an evaluation session over `instance`: preprocessing (value
    /// interning, normalization, index builds, per-member CDY engines) is
    /// performed at most once and reused by every subsequent call.
    pub fn session(&self, instance: &Instance) -> EvalSession<'_> {
        self.session_in(&CtxView::new(), instance)
    }

    /// As [`UcqEngine::session`], but over a caller-provided context:
    /// repeated sessions share the dictionary, interned relations, indexes,
    /// statistics — and the plan cache, so the second session's build skips
    /// the cost-based plan search entirely (observable as
    /// [`PlannerStats::plan_cache_hits`]).
    pub fn session_in(&self, ctx: &CtxView, instance: &Instance) -> EvalSession<'_> {
        EvalSession {
            engine: self,
            instance: instance.clone(),
            ctx: ctx.clone(),
            prepared: OnceLock::new(),
            planner: PlannerCounters::default(),
        }
    }

    /// Forces the naive strategy: the oracle the tests and `benchmark/`
    /// compare every other strategy against.
    pub fn enumerate_naive(&self, instance: &Instance) -> Result<Vec<Tuple>, EvalError> {
        let ctx = CtxView::new();
        let minimized = &self.classification.minimized;
        let table = evaluate_ucq_naive_ids_in(minimized, self.answer_arity, instance, &ctx)?;
        Ok(table.decode(&ctx))
    }

    /// `Decide⟨Q⟩`: whether the union has at least one answer. Runs the
    /// chosen strategy's whole linear phase first — every member is built
    /// even when the first one already has an answer — and then asks it;
    /// still linear, and one construction path instead of two.
    pub fn decide(&self, instance: &Instance) -> Result<bool, EvalError> {
        let ctx = CtxView::new();
        Ok(Prepared::build(self, &ctx, instance, None, None)?.decide(&ctx))
    }
}

/// The preprocessed state of one `(engine, instance)` pair: what the linear
/// phase leaves behind and every enumeration starts from. Cloning shares
/// everything (plans, relations, engines and the naive table are `Arc`s).
#[derive(Clone)]
enum Prepared {
    /// A tractable union's prep: the plan, its virtual relations and the
    /// extended members' CDY engines, which Algorithm 1 restarts cursors
    /// off (a Theorem 4 union's plan is empty, its members its own).
    Members(UcqPipelinePrep),
    /// The naive fallback's materialized answers, replayed from one shared
    /// buffer by every enumeration (this value is the rewound prototype).
    Naive(IdVecEnumerator<Arc<[ValueId]>>),
}

impl Prepared {
    /// Runs the linear phase of `engine`'s strategy over `instance` through
    /// `ctx`. Lazy where a one-shot caller may never look: Algorithm 1's
    /// membership sets are left to the first probe (or to
    /// [`Prepared::retarget`], for sessions that will be served).
    ///
    /// Given a `previous` epoch's prep (built through the same build
    /// context) and the base relations a delta replaced since, a tractable
    /// union keeps what the delta did not reach ([`UcqPipelinePrep::prepare`]).
    fn build(
        engine: &UcqEngine,
        ctx: &CtxView,
        instance: &Instance,
        counters: Option<&PlannerCounters>,
        previous: Option<Previous<'_>>,
    ) -> Result<Prepared, EvalError> {
        let minimized = &engine.classification.minimized;
        let Some(plan) = engine.plan(ctx, instance, counters) else {
            let arity = engine.answer_arity;
            let table = evaluate_ucq_naive_ids_in(minimized, arity, instance, ctx)?;
            return Ok(Prepared::Naive(IdVecEnumerator::new(
                table.width,
                table.data.into(),
                table.n_rows,
            )));
        };
        let lifts = &engine.lifts;
        let prep = UcqPipelinePrep::prepare(minimized, plan, lifts, instance, ctx, previous);
        Ok(Prepared::Members(prep?))
    }

    /// Starts one enumeration, tagged with the `strategy` that prepared
    /// it: O(1) in the data on both arms — fresh cursors over shared
    /// engines and buffers — and the same block decoder above each of
    /// them. It decodes through `ctx`, the caller's view, not one of the
    /// engines': after a refreeze the members hold views of different
    /// epochs, and only the newest decodes every member's ids.
    fn start(&self, strategy: Strategy, ctx: &CtxView) -> UcqAnswers {
        let ids: Box<dyn IdEnumerator + Send> = match self {
            Prepared::Members(prep) => Box::new(Algorithm1Ids::new(prep.engines.clone())),
            Prepared::Naive(table) => Box::new(table.clone()),
        };
        UcqAnswers {
            strategy,
            inner: IdDecoder::new(ids, ctx.clone()),
        }
    }

    /// A tractable union's prep.
    fn members(&self) -> Option<&UcqPipelinePrep> {
        match self {
            Prepared::Members(prep) => Some(prep),
            Prepared::Naive(_) => None,
        }
    }

    /// `Decide⟨Q⟩` from the preprocessed state: for a tractable union a
    /// pure preprocessing answer (each extended member's CDY `decide()`;
    /// their answers together are the union's), otherwise a request for
    /// one answer.
    fn decide(&self, ctx: &CtxView) -> bool {
        match self.members() {
            Some(prep) => prep.engines.iter().any(|e| e.decide()),
            None => self.start(Strategy::Naive, ctx).has_answer(),
        }
    }

    /// Moves this state onto `view`, a snapshot of the context it was built
    /// through, warming the membership sets Algorithm 1 will probe (see
    /// [`retarget_members`]).
    fn retarget(&mut self, view: &CtxView) {
        if let Prepared::Members(prep) = self {
            retarget_members(&mut prep.engines, view);
        }
    }
}

/// A pinned `(classified query, instance)` pair with persistent caches —
/// the repeated-evaluation ("serve traffic") API.
///
/// ```
/// use ucq_core::UcqEngine;
/// use ucq_enumerate::Enumerator;
/// use ucq_query::parse_ucq;
/// use ucq_storage::{Instance, Relation};
///
/// let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
/// let instance: Instance =
///     [("R", Relation::from_pairs([(1, 2), (3, 4)]))].into_iter().collect();
/// let session = engine.session(&instance);
/// for _ in 0..3 {
///     // Preprocessing runs once; each call just restarts enumeration.
///     assert_eq!(session.enumerate().unwrap().collect_all().len(), 2);
/// }
/// ```
pub struct EvalSession<'e> {
    engine: &'e UcqEngine,
    instance: Instance,
    ctx: CtxView,
    prepared: OnceLock<Prepared>,
    planner: PlannerCounters,
}

impl<'e> EvalSession<'e> {
    /// The engine this session evaluates.
    pub fn engine(&self) -> &UcqEngine {
        self.engine
    }

    /// The shared context (dictionary + caches) of this session.
    pub fn context(&self) -> &CtxView {
        &self.ctx
    }

    /// The strategy session evaluations use.
    pub fn strategy(&self) -> Strategy {
        self.engine.strategy()
    }

    /// Planner counters for this session (plan searches, candidates
    /// priced, plan-cache hits).
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner.snapshot()
    }

    /// The session's preprocessed state, built by the first caller. Callers
    /// that race for it each build; one result is kept.
    fn prepared(&self) -> Result<&Prepared, EvalError> {
        if let Some(prepared) = self.prepared.get() {
            return Ok(prepared);
        }
        let counters = Some(&self.planner);
        let built = Prepared::build(self.engine, &self.ctx, &self.instance, counters, None)?;
        Ok(self.prepared.get_or_init(|| built))
    }

    /// Starts an enumeration. The first call performs the linear
    /// preprocessing; subsequent calls only restart enumeration cursors.
    pub fn enumerate(&self) -> Result<UcqAnswers, EvalError> {
        Ok(self.prepared()?.start(self.strategy(), &self.ctx))
    }

    /// `Decide⟨Q⟩` against the pinned instance, from the session's
    /// preprocessed state.
    pub fn decide(&self) -> Result<bool, EvalError> {
        Ok(self.prepared()?.decide(&self.ctx))
    }

    /// Ends the build phase: runs the linear preprocessing if it has not
    /// run yet, snapshots the context into an immutable
    /// [`ucq_storage::FrozenContext`], and retargets the prepared state
    /// onto the snapshot — no preprocessing is repeated. The result is
    /// `Send + Sync`: N threads can call [`FrozenSession::enumerate`]
    /// concurrently, each getting its own cursors, with zero locking on
    /// the per-answer path.
    pub fn freeze(mut self) -> Result<FrozenSession<'e>, EvalError> {
        self.prepared()?;
        // Moved out, not cloned: `retarget` moves only engines nobody else
        // holds, and a copy left in the memo would hold them all.
        let mut prepared = self.prepared.take().expect("just prepared");
        let ctx = self.ctx.freeze();
        prepared.retarget(&ctx);
        Ok(FrozenSession {
            engine: self.engine,
            instance: self.instance,
            ctx,
            build_ctx: self.ctx,
            prepared,
            planner: self.planner.snapshot(),
        })
    }
}

/// A frozen `(classified query, instance)` session: `Send + Sync`, served
/// concurrently by any number of threads. Produced by
/// [`EvalSession::freeze`]; see the module docs for the lifecycle.
///
/// ```
/// use std::collections::HashSet;
/// use ucq_core::UcqEngine;
/// use ucq_enumerate::Enumerator;
/// use ucq_query::parse_ucq;
/// use ucq_storage::{Instance, Relation, Tuple};
///
/// let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
/// let instance: Instance =
///     [("R", Relation::from_pairs([(1, 2), (3, 4)]))].into_iter().collect();
/// let frozen = engine.session(&instance).freeze().unwrap();
/// let answers: Vec<HashSet<Tuple>> = std::thread::scope(|s| {
///     let handles: Vec<_> = (0..2)
///         .map(|_| s.spawn(|| frozen.enumerate().unwrap().collect_all().into_iter().collect()))
///         .collect();
///     handles.into_iter().map(|h| h.join().unwrap()).collect()
/// });
/// assert_eq!(answers[0], answers[1]);
/// assert_eq!(answers[0].len(), 2);
/// ```
pub struct FrozenSession<'e> {
    engine: &'e UcqEngine,
    instance: Instance,
    ctx: CtxView,
    /// The build-phase context this snapshot was frozen from, kept alive so
    /// [`FrozenSession::refreeze`] can ingest deltas into the *same*
    /// dictionary lineage and snapshot the next epoch without re-interning
    /// anything the previous epoch already holds.
    build_ctx: CtxView,
    prepared: Prepared,
    planner: PlannerStats,
}

impl<'e> FrozenSession<'e> {
    /// The engine this session evaluates.
    pub fn engine(&self) -> &UcqEngine {
        self.engine
    }

    /// The pinned instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The frozen context view (always [`CtxView::is_frozen`]).
    pub fn context(&self) -> &CtxView {
        &self.ctx
    }

    /// The strategy frozen evaluations use.
    pub fn strategy(&self) -> Strategy {
        self.engine.strategy()
    }

    /// Planner counters accumulated by the build-phase session this
    /// snapshot was frozen from.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner
    }

    /// Starts an enumeration over the frozen state. Callable from many
    /// threads at once (`&self`); each call returns an independent stream
    /// owning its cursors and scratch, while all streams read
    /// the same frozen dictionary, relations and indexes lock-free.
    pub fn enumerate(&self) -> Result<UcqAnswers, EvalError> {
        Ok(self.prepared.start(self.strategy(), &self.ctx))
    }

    /// `Decide⟨Q⟩` against the frozen state (no preprocessing, no joins).
    pub fn decide(&self) -> Result<bool, EvalError> {
        Ok(self.prepared.decide(&self.ctx))
    }

    /// The build-phase context behind this snapshot — the write side of the
    /// session. Deltas go here
    /// ([`EvalContext::insert_rows`](ucq_storage::EvalContext::insert_rows) /
    /// [`delete_rows`](ucq_storage::EvalContext::delete_rows) via the view),
    /// then [`FrozenSession::refreeze`] publishes them as the next epoch.
    pub fn build_context(&self) -> &CtxView {
        &self.build_ctx
    }

    /// Builds the **next epoch** of this frozen session over `instance`,
    /// doing work proportional to the delta rather than the database.
    ///
    /// `instance` is expected to differ from the pinned instance only in
    /// relations replaced through the delta-ingestion API
    /// (`insert_rows`/`delete_rows` on [`FrozenSession::build_context`],
    /// spliced in with
    /// [`Instance::with_relation_shared`](ucq_storage::Instance::with_relation_shared)),
    /// so untouched relations keep their `Arc` identity — which is how a
    /// relation counts as untouched here. When nothing the (minimized)
    /// query reads was touched, the next epoch *is* this one: same
    /// snapshot, same prepared state. Otherwise the touched state is
    /// rebuilt against the build context *before* the new snapshot is
    /// taken, so everything it interns, indexes, materializes or plans
    /// lands below the new epoch's watermark (no overlay traffic at serve
    /// time), and every untouched relation, index, derived normalization
    /// and cached plan is *shared* with the previous epoch:
    ///
    /// * **A tractable union** re-resolves its plan: a Theorem 4 union's
    ///   empty certificate is the same `Arc` every time, a union
    ///   extension's comes from the plan cache unless churn bumped the
    ///   stats epoch past the replan threshold (so skew flips surface
    ///   here). A new plan rebuilds every virtual relation and member.
    ///   Under the same plan one rule walks the plan's atoms in schedule
    ///   order: it keeps each virtual relation whose provider reads (its
    ///   atoms and the virtual relations it uses) the same `Arc`s as
    ///   before, then each member whose extension and lift read only such
    ///   relations. A kept engine stays pinned to the previous epoch's view
    ///   (valid: one dictionary lineage). A rebuilt one runs against the
    ///   caches `insert_rows` carried over — the mirror, the normalizations
    ///   and the separator indexes on them — so an insert costs it a
    ///   re-probe of its parent rows and an arena scan, not a re-hash. (A
    ///   delete drops the touched relation's normalizations; those and
    ///   their indexes are rebuilt once for all members.)
    /// * **Naive** — the answer table is materialized again.
    ///
    /// The old session keeps serving its own epoch untouched throughout —
    /// pair with [`ucq_storage::EpochCell`] to rotate live traffic.
    pub fn refreeze(&self, instance: &Instance) -> Result<FrozenSession<'e>, EvalError> {
        let touched = |n: &str| match (self.instance.get_shared(n), instance.get_shared(n)) {
            (Some(a), Some(b)) => !Arc::ptr_eq(&a, &b),
            (None, None) => false,
            _ => true,
        };
        let (prepared, ctx) = if self.engine.reads().any(touched) {
            let touched: &dyn Fn(&str) -> bool = &touched;
            let previous = self.prepared.members().map(|prep| (prep, touched));
            let mut next = Prepared::build(self.engine, &self.build_ctx, instance, None, previous)?;
            let view = self.build_ctx.freeze();
            next.retarget(&view);
            (next, view)
        } else {
            (self.prepared.clone(), self.ctx.clone())
        };
        Ok(FrozenSession {
            engine: self.engine,
            instance: instance.clone(),
            ctx,
            build_ctx: self.build_ctx.clone(),
            prepared,
            planner: self.planner,
        })
    }

    #[cfg(test)]
    fn engines(&self) -> Option<&[Arc<ucq_yannakakis::CdyEngine>]> {
        self.prepared.members().map(UcqPipelinePrep::engines)
    }
}

/// A strategy-tagged answer stream: the strategy's id rows behind the one
/// block decoder. `Send`, so a serving thread can take an enumeration with
/// it (each stream owns its cursors and scratch).
pub struct UcqAnswers {
    strategy: Strategy,
    inner: IdDecoder<Box<dyn IdEnumerator + Send>>,
}

impl UcqAnswers {
    /// Which strategy produced this stream.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Rows pulled from the strategy so far.
    pub fn rows_pulled(&self) -> usize {
        self.inner.rows_pulled()
    }

    /// Rows decoded to values so far — every pulled row, once, whether or
    /// not the caller went on to take it.
    pub fn rows_decoded(&self) -> usize {
        self.inner.rows_decoded()
    }

    /// `Decide` by enumeration: asks for one answer, and says so first, so
    /// that the decoder prepares one row rather than a block.
    fn has_answer(mut self) -> bool {
        self.expect_at_most(1);
        self.next().is_some()
    }
}

impl Enumerator for UcqAnswers {
    fn next(&mut self) -> Option<Tuple> {
        self.inner.next()
    }

    fn next_into(&mut self, out: &mut Vec<Tuple>, max: usize) -> usize {
        self.inner.next_into(out, max)
    }

    fn expect_at_most(&mut self, rows: usize) {
        self.inner.expect_at_most(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_ucq::evaluate_ucq_naive_set;
    use std::collections::HashSet;
    use ucq_query::parse_ucq;
    use ucq_storage::Relation;

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    fn check_strategy(text: &str, i: &Instance, expect: Strategy) {
        let u = parse_ucq(text).unwrap();
        let eng = UcqEngine::new(u.clone());
        assert_eq!(eng.strategy(), expect, "strategy for {text}");
        let mut ans = eng.enumerate(i).unwrap();
        let got: HashSet<Tuple> = ans.collect_all().into_iter().collect();
        let want = evaluate_ucq_naive_set(&u, i).unwrap();
        assert_eq!(got, want);
        // The session path must agree with the one-shot path, repeatedly.
        let session = eng.session(i);
        for _ in 0..2 {
            let mut ans = session.enumerate().unwrap();
            let via_session: HashSet<Tuple> = ans.collect_all().into_iter().collect();
            assert_eq!(via_session, want, "session answers for {text}");
        }
        assert_eq!(session.decide().unwrap(), !want.is_empty());
    }

    #[test]
    fn all_free_connex_uses_algorithm1() {
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(1, 2), (5, 6)])]);
        check_strategy(
            "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)",
            &i,
            Strategy::Algorithm1,
        );
    }

    #[test]
    fn example2_uses_pipeline() {
        let i = inst(&[
            ("R1", vec![(1, 2)]),
            ("R2", vec![(2, 3)]),
            ("R3", vec![(3, 4)]),
        ]);
        check_strategy(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
            &i,
            Strategy::UnionExtension,
        );
    }

    #[test]
    fn hard_query_falls_back_to_naive() {
        let i = inst(&[("A", vec![(1, 2)]), ("B", vec![(2, 3)])]);
        check_strategy("Q(x, y) <- A(x, z), B(z, y)", &i, Strategy::Naive);
    }

    #[test]
    fn redundancy_removed_before_evaluation() {
        // Example 1: the union equals Q2, so Algorithm 1 applies even
        // though Q1 alone is cyclic.
        let i = inst(&[
            ("R1", vec![(1, 2), (2, 3)]),
            ("R2", vec![(2, 4), (3, 4)]),
            ("R3", vec![(4, 1)]),
        ]);
        check_strategy(
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
            &i,
            Strategy::Algorithm1,
        );
    }

    #[test]
    fn session_preprocesses_once() {
        let u = parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap();
        let eng = UcqEngine::new(u);
        let i = inst(&[("R", vec![(1, 2), (3, 4)]), ("S", vec![(3, 4)])]);
        let session = eng.session(&i);
        session.enumerate().unwrap();
        let builds_after_first = session.context().stats().interned_builds;
        session.enumerate().unwrap();
        session.enumerate().unwrap();
        assert_eq!(
            session.context().stats().interned_builds,
            builds_after_first,
            "repeated session calls intern nothing new"
        );
    }

    #[test]
    fn repeated_sessions_hit_the_plan_cache() {
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let eng = UcqEngine::new(u);
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let i = inst(&[
            ("R1", vec![(1, 2)]),
            ("R2", vec![(2, 3)]),
            ("R3", vec![(3, 4)]),
        ]);
        let ctx = CtxView::new();
        let first = eng.session_in(&ctx, &i);
        let baseline: HashSet<Tuple> = first
            .enumerate()
            .unwrap()
            .collect_all()
            .into_iter()
            .collect();
        let p1 = first.planner_stats();
        assert_eq!(p1.plans_searched, 1, "first session prices the search");
        assert_eq!(p1.plan_cache_hits, 0);
        assert!(p1.candidates_costed >= 1, "at least one candidate priced");
        // Re-enumerating within one session prepares nothing new.
        first.enumerate().unwrap();
        assert_eq!(first.planner_stats(), p1);

        let second = eng.session_in(&ctx, &i);
        let again: HashSet<Tuple> = second
            .enumerate()
            .unwrap()
            .collect_all()
            .into_iter()
            .collect();
        assert_eq!(again, baseline);
        let p2 = second.planner_stats();
        assert_eq!(p2.plans_searched, 0, "second session skips the pricing");
        assert_eq!(p2.plan_cache_hits, 1, "cached plan reused");
        assert_eq!(p2.candidates_costed, 0);
    }

    #[test]
    fn churned_skew_flips_the_cheapest_provider() {
        // Q1's extension {x, z, y} has two providers: Q2 prices it off
        // R1 ⋈ R2, Q3 off R1 ⋈ R4. Which is cheapest depends on the data.
        let text = "Q1(x, y, w) <- R1(x, z), R2(z, y), R4(z, y), R3(y, w)\n\
                    Q2(x, y, w) <- R1(x, y), R2(y, w)\n\
                    Q3(x, y, w) <- R1(x, y), R4(y, w)";
        let u = parse_ucq(text).unwrap();
        let eng = UcqEngine::new(u.clone());
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let base = inst(&[
            ("R1", (0..4).map(|i| (i, i + 1)).collect()),
            ("R2", (0..4).map(|i| (i + 1, i + 2)).collect()),
            ("R4", (0..4).map(|i| (i + 1, i + 2)).collect()),
            ("R3", (0..4).map(|i| (i + 2, i + 3)).collect()),
        ]);
        let ctx = CtxView::new();
        let first = eng.session_in(&ctx, &base);
        first.enumerate().unwrap();
        assert_eq!(first.planner_stats().plans_searched, 1);
        let search = eng.search().expect("a free-connex union keeps its search");
        let uniform = search.plan(&base, &ctx);
        let before = uniform.plan.atoms[0].provenance.provider;

        // Skew R2: a delta far past the 25% churn threshold bumps the
        // stats epoch, so the cached plan goes stale …
        let e0 = ctx.stats_epoch();
        let delta = Relation::from_pairs((0..400i64).map(|i| (i % 5, i + 10)));
        let r2 = ctx.insert_rows(&base.get_shared("R2").unwrap(), &delta);
        let skewed = base.with_relation_shared("R2", r2);
        assert!(ctx.stats_epoch() > e0, "heavy churn bumps the stats epoch");

        // … the next session re-prices instead of hitting the cache …
        let second = eng.session_in(&ctx, &skewed);
        second.enumerate().unwrap();
        let p2 = second.planner_stats();
        assert_eq!(p2.plan_cache_hits, 0, "stale plan must not be reused");
        assert_eq!(p2.plans_searched, 1, "churned stats force a re-pricing");

        // … and the re-costed plan routes the extension through the other
        // provider (R2's blow-up makes Q3's R1 ⋈ R4 the cheap one).
        let recosted = search.plan(&skewed, &ctx);
        let after = recosted.plan.atoms[0].provenance.provider;
        assert_ne!(before, after, "skew flips the cheapest provider");

        // The flip never changes the answers.
        let got: HashSet<Tuple> = second
            .enumerate()
            .unwrap()
            .collect_all()
            .into_iter()
            .collect();
        assert_eq!(got, naive_set(text, &skewed));
    }

    fn naive_set(text: &str, i: &Instance) -> HashSet<Tuple> {
        evaluate_ucq_naive_set(&parse_ucq(text).unwrap(), i).unwrap()
    }

    fn collect(frozen: &FrozenSession<'_>) -> HashSet<Tuple> {
        frozen
            .enumerate()
            .unwrap()
            .collect_all()
            .into_iter()
            .collect()
    }

    #[test]
    fn refreeze_reuses_untouched_members() {
        let text = "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::Algorithm1);
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(5, 6)])]);
        let frozen = eng.session(&i).freeze().unwrap();
        assert_eq!(collect(&frozen), naive_set(text, &i));

        // Delta into R only; S keeps its Arc identity.
        let r2 = frozen
            .build_context()
            .insert_rows(&i.get_shared("R").unwrap(), &Relation::from_pairs([(3, 4)]));
        let i2 = i.with_relation_shared("R", r2);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        // The old epoch still serves the old answers.
        assert_eq!(collect(&frozen), naive_set(text, &i));
        // Member order follows minimized.cqs(): Q1 reads R (rebuilt), Q2
        // reads S (shared with the previous epoch).
        let old = frozen.engines().unwrap();
        let new = next.engines().unwrap();
        assert!(!Arc::ptr_eq(&old[0], &new[0]), "touched member rebuilt");
        assert!(Arc::ptr_eq(&old[1], &new[1]), "untouched member shared");
    }

    #[test]
    fn members_on_mixed_views_decode_through_one_that_covers_them_all() {
        let text = "Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(1, 2), (5, 6)])]);
        let frozen = eng.session(&i).freeze().unwrap();
        // The first epoch's view grows an overlay: its `dict_len` now
        // exceeds the next epoch's, while it cannot decode that epoch's ids.
        for v in 1000..1010 {
            frozen.context().intern(ucq_storage::Value::Int(v));
        }
        let delta = Relation::from_pairs([(70, 71), (72, 73)]);
        let s2 = frozen
            .build_context()
            .insert_rows(&i.get_shared("S").unwrap(), &delta);
        let i2 = i.with_relation_shared("S", s2);
        let next = frozen.refreeze(&i2).unwrap();
        assert!(frozen.context().dict_len() > next.context().dict_len());

        // Q1 is reused and keeps the old view; Q2 is rebuilt on the new.
        let engines = next.engines().unwrap().to_vec();
        let views: Vec<usize> = engines
            .iter()
            .map(|e| match e.context() {
                CtxView::Frozen(f) => f.frozen_len(),
                CtxView::Build(_) => panic!("frozen members hold frozen views"),
            })
            .collect();
        assert!(views[0] < views[1], "stale first member, fresh second");
        let want = naive_set(text, &i2);
        assert_eq!(collect(&next), want, "the session decodes through its own");
        let direct: HashSet<Tuple> = crate::Algorithm1::from_engines(engines)
            .collect_all()
            .into_iter()
            .collect();
        assert_eq!(direct, want, "from_engines picks the highest watermark");
    }

    fn sets_built_on_demand(frozen: &FrozenSession<'_>) -> usize {
        let engines = frozen.engines().unwrap();
        engines
            .iter()
            .map(|e| e.membership_sets_built_on_demand())
            .sum()
    }

    #[test]
    fn no_request_on_a_frozen_session_builds_a_membership_set() {
        let text = "Q1(x, y, z) <- A(x, y), B(y, z)\nQ2(x, y, z) <- A(x, y), C(y, z)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::Algorithm1);
        let i = inst(&[
            ("A", vec![(1, 2), (3, 4), (5, 6)]),
            ("B", vec![(2, 7), (6, 8)]),
            ("C", vec![(4, 9), (6, 8)]),
        ]);
        let frozen = eng.session(&i).freeze().unwrap();
        assert_eq!(collect(&frozen), naive_set(text, &i));
        assert_eq!(sets_built_on_demand(&frozen), 0, "freeze warmed them");

        // A rotation that rebuilds the probed member warms the new engine.
        let c2 = frozen
            .build_context()
            .insert_rows(&i.get_shared("C").unwrap(), &Relation::from_pairs([(2, 7)]));
        let i2 = i.with_relation_shared("C", c2);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(sets_built_on_demand(&next), 0, "refreeze warmed them");

        // The Theorem 12 arm probes its extended members the same way.
        let text = "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                    Q2(x, y, w) <- R1(x, y), R2(y, w)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 5), (9, 7)]),
            ("R2", vec![(2, 3), (5, 3), (7, 0)]),
            ("R3", vec![(3, 4), (3, 6), (0, 2)]),
        ]);
        let frozen = eng.session(&i).freeze().unwrap();
        assert_eq!(collect(&frozen), naive_set(text, &i));
        assert_eq!(sets_built_on_demand(&frozen), 0, "freeze warmed them");
        // Q2, the probed member, reads R2.
        let r2 = frozen.build_context().insert_rows(
            &i.get_shared("R2").unwrap(),
            &Relation::from_pairs([(2, 8)]),
        );
        let i2 = i.with_relation_shared("R2", r2);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(sets_built_on_demand(&next), 0, "refreeze warmed them");
    }

    #[test]
    fn a_request_for_one_answer_says_so_to_its_producer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use ucq_enumerate::{Budgeted, QueryBudget};
        use ucq_storage::IdBlock;
        /// An endless Boolean stream recording how many rows its fills
        /// asked for in all.
        struct Probe(Arc<AtomicUsize>);
        impl IdEnumerator for Probe {
            fn arity(&self) -> usize {
                0
            }
            fn next_block(&mut self, block: &mut IdBlock) -> usize {
                let asked = block.remaining();
                self.0.fetch_add(asked, Ordering::Relaxed);
                (0..asked).for_each(|_| block.push_row(&[]));
                asked
            }
        }
        let asked = Arc::new(AtomicUsize::new(0));
        let answers = || UcqAnswers {
            strategy: Strategy::UnionExtension,
            inner: IdDecoder::new(Box::new(Probe(Arc::clone(&asked))), CtxView::new()),
        };
        assert!(answers().has_answer());
        assert_eq!(asked.load(Ordering::Relaxed), 1);
        // An answer cap travels the same way: n answers and the one beyond.
        asked.store(0, Ordering::Relaxed);
        let budget = QueryBudget::unlimited().with_max_answers(40);
        let mut page = Budgeted::new(answers(), budget);
        assert_eq!(page.collect_all().len(), 40);
        assert_eq!(asked.load(Ordering::Relaxed), 41);
        assert_eq!(page.into_inner().rows_decoded(), 41);
    }

    #[test]
    fn shared_shapes_are_hashed_once_and_carried_across_sessions_and_epochs() {
        // Both members read A in one shape; B and C are each member's own.
        let text = "Q1(x, y, z) <- A(x, y), B(y, z)\nQ2(x, y, z) <- A(x, y), C(y, z)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::Algorithm1);
        let i = inst(&[
            ("A", vec![(1, 2), (3, 4), (5, 6)]),
            ("B", vec![(2, 7), (6, 8)]),
            ("C", vec![(4, 9), (6, 8)]),
        ]);
        let ctx = CtxView::new();
        let first = eng.session_in(&ctx, &i);
        first.enumerate().unwrap();
        let s1 = ctx.stats();
        assert_eq!(
            s1.index_builds, 1,
            "one (relation, shape, separator): A on y"
        );
        assert!(s1.index_hits >= 1, "the second member reuses it");

        // A second session over the same context hashes nothing.
        let second = eng.session_in(&ctx, &i);
        second.enumerate().unwrap();
        let s2 = ctx.stats();
        assert_eq!(s2.index_builds, s1.index_builds);
        assert_eq!(s2.derived_builds, s1.derived_builds);
        assert!(s2.index_hits > s1.index_hits);

        // An insert into the indexed relation: the next epoch's index is
        // merged, nothing is rebuilt, untouched relations are not looked at.
        let frozen = second.freeze().unwrap();
        let a2 = ctx.insert_rows(&i.get_shared("A").unwrap(), &Relation::from_pairs([(7, 2)]));
        let i2 = i.with_relation_shared("A", a2);
        let next = frozen.refreeze(&i2).unwrap();
        assert!(ctx.ingest_stats().indexes_merged >= 1);
        let s3 = ctx.stats();
        assert_eq!(s3.index_builds, s2.index_builds, "merged, not rebuilt");
        assert_eq!(s3.derived_builds, s2.derived_builds, "carried, not rebuilt");
        assert_eq!(s3.interned_builds, s2.interned_builds);
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(collect(&frozen), naive_set(text, &i), "old epoch intact");

        // A delete drops A's normalization: one rebuild, shared again.
        let a3 = ctx.delete_rows(
            &i2.get_shared("A").unwrap(),
            &Relation::from_pairs([(3, 4)]),
        );
        let i3 = i2.with_relation_shared("A", a3);
        let last = next.refreeze(&i3).unwrap();
        assert_eq!(ctx.stats().index_builds, s3.index_builds + 1);
        assert_eq!(collect(&last), naive_set(text, &i3));
    }

    #[test]
    fn refreeze_with_no_changes_shares_the_snapshot() {
        let eng = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
        let i = inst(&[("R", vec![(1, 2)])]);
        let frozen = eng.session(&i).freeze().unwrap();
        let next = frozen.refreeze(&i.clone()).unwrap();
        match (&frozen.ctx, &next.ctx) {
            (CtxView::Frozen(a), CtxView::Frozen(b)) => {
                assert!(Arc::ptr_eq(a, b), "no-op refreeze shares the snapshot")
            }
            _ => panic!("frozen sessions hold frozen views"),
        }
        assert_eq!(collect(&next), collect(&frozen));
    }

    #[test]
    fn refreeze_keeps_the_virtual_relations_and_members_a_delta_did_not_reach() {
        // Example 2: Q2 (R1, R2) provides Q1's virtual relation; only Q1
        // reads R3.
        let text = "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                    Q2(x, y, w) <- R1(x, y), R2(y, w)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let chain = |from: i64| (0..20).map(|k| (k + from, k + from + 1)).collect();
        let i = inst(&[("R1", chain(0)), ("R2", chain(1)), ("R3", chain(2))]);
        let prep = |f: &FrozenSession<'_>| f.prepared.members().unwrap().clone();
        let frozen = eng.session(&i).freeze().unwrap();
        assert_eq!(collect(&frozen), naive_set(text, &i));
        let ctx = frozen.build_context();
        let e0 = ctx.stats_epoch();

        // A delta to R3 reaches Q1 only: Q2's engine and the virtual
        // relation Q2 provides are shared with the previous epoch.
        let grow = |i: &Instance, rel: &str, rows: Relation| {
            i.with_relation_shared(rel, ctx.insert_rows(&i.get_shared(rel).unwrap(), &rows))
        };
        let i2 = grow(&i, "R3", Relation::from_pairs([(4, 40)]));
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(ctx.stats_epoch(), e0, "a small delta keeps the plan");
        assert_eq!(collect(&next), naive_set(text, &i2));
        let (old, new) = (prep(&frozen), prep(&next));
        assert!(Arc::ptr_eq(&old.plan, &new.plan), "the cached plan");
        let (was, is) = (&old.virtuals, &new.virtuals);
        assert_eq!(is.len(), 1);
        assert!(Arc::ptr_eq(&was[0], &is[0]), "the virtual relation is kept");
        assert!(
            !Arc::ptr_eq(&old.engines()[0], &new.engines()[0]),
            "Q1 rebuilt"
        );
        assert!(Arc::ptr_eq(&old.engines()[1], &new.engines()[1]), "Q2 kept");

        // A delta to R1 reaches the provider, hence the virtual relation,
        // and every member.
        let i3 = grow(&i2, "R1", Relation::from_pairs([(30, 5)]));
        let last = next.refreeze(&i3).unwrap();
        assert_eq!(ctx.stats_epoch(), e0);
        assert_eq!(collect(&last), naive_set(text, &i3));
        let (old, new) = (new, prep(&last));
        assert!(Arc::ptr_eq(&old.plan, &new.plan));
        let (was, is) = (&old.virtuals, &new.virtuals);
        assert!(!Arc::ptr_eq(&was[0], &is[0]), "the provider read R1");
        for (a, b) in old.engines().iter().zip(new.engines()) {
            assert!(!Arc::ptr_eq(a, b), "every member reads R1");
        }

        // Skew R3 past the churn threshold: the plan is priced again, and a
        // new plan keeps nothing, though R1 and R2 are untouched.
        let skew = Relation::from_pairs((0..400i64).map(|k| (k % 5, k + 100)));
        let i4 = grow(&i3, "R3", skew);
        assert!(ctx.stats_epoch() > e0, "heavy churn bumps the stats epoch");
        let repriced = last.refreeze(&i4).unwrap();
        assert_eq!(collect(&repriced), naive_set(text, &i4));
        let (old, new) = (new, prep(&repriced));
        assert!(!Arc::ptr_eq(&old.plan, &new.plan), "a new plan");
        let (was, is) = (&old.virtuals, &new.virtuals);
        assert!(
            !Arc::ptr_eq(&was[0], &is[0]),
            "a new plan materializes again"
        );
        for (a, b) in old.engines().iter().zip(new.engines()) {
            assert!(!Arc::ptr_eq(a, b), "a new plan rebuilds every member");
        }
        // Every earlier epoch still serves its own instance.
        assert_eq!(collect(&frozen), naive_set(text, &i));
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(collect(&last), naive_set(text, &i3));
    }

    #[test]
    fn refreeze_union_strategy_after_delete() {
        let text = "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                    Q2(x, y, w) <- R1(x, y), R2(y, w)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 5), (9, 7)]),
            ("R2", vec![(2, 3), (5, 3), (7, 0)]),
            ("R3", vec![(3, 4), (3, 6), (0, 2)]),
        ]);
        let frozen = eng.session(&i).freeze().unwrap();
        assert_eq!(collect(&frozen), naive_set(text, &i));

        let ctx = frozen.build_context();
        let r1 = ctx.delete_rows(
            &i.get_shared("R1").unwrap(),
            &Relation::from_pairs([(9, 7)]),
        );
        let r1 = ctx.insert_rows(&r1, &Relation::from_pairs([(8, 2)]));
        let i2 = i.with_relation_shared("R1", r1);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(collect(&frozen), naive_set(text, &i), "old epoch intact");
    }

    #[test]
    fn refreeze_naive_strategy_rematerializes() {
        let text = "Q(x, y) <- A(x, z), B(z, y)";
        let eng = UcqEngine::new(parse_ucq(text).unwrap());
        assert_eq!(eng.strategy(), Strategy::Naive);
        let i = inst(&[("A", vec![(1, 2)]), ("B", vec![(2, 3)])]);
        let frozen = eng.session(&i).freeze().unwrap();
        let a2 = frozen
            .build_context()
            .insert_rows(&i.get_shared("A").unwrap(), &Relation::from_pairs([(7, 2)]));
        let i2 = i.with_relation_shared("A", a2);
        let next = frozen.refreeze(&i2).unwrap();
        assert_eq!(collect(&next), naive_set(text, &i2));
        assert_eq!(collect(&frozen), naive_set(text, &i));
    }

    #[test]
    fn naive_enumerations_share_one_table_and_never_rejoin() {
        let eng = UcqEngine::new(parse_ucq("Q(x, y) <- A(x, z), B(z, y)").unwrap());
        assert_eq!(eng.strategy(), Strategy::Naive);
        let i = inst(&[("A", vec![(1, 2), (4, 2)]), ("B", vec![(2, 3)])]);
        let table = |p: &Prepared| match p {
            Prepared::Naive(t) => Arc::clone(t.table()),
            _ => panic!("naive strategy prepares a table"),
        };
        let session = eng.session(&i);
        let mut streams = vec![session.enumerate().unwrap(), session.enumerate().unwrap()];
        let held = table(session.prepared().unwrap());
        // The session's prototype, two streams, and `held` itself.
        assert_eq!(Arc::strong_count(&held), 4, "streams share the table");
        let frozen = session.freeze().unwrap();
        assert!(
            Arc::ptr_eq(&held, &table(&frozen.prepared)),
            "freeze keeps it"
        );
        streams.push(frozen.enumerate().unwrap());
        streams.push(frozen.enumerate().unwrap());
        assert_eq!(Arc::strong_count(&held), 6, "no copy per served request");
        for mut s in streams {
            assert_eq!(s.collect_all().len(), 2);
        }
    }

    #[test]
    fn redundant_member_gets_no_stages() {
        // Example 1 shape: Q1 ⊆ Q2, and Q1 alone is cyclic (it would be
        // hopeless to plan). Then a chain Q3 ⊆ Q2 ⊆ Q1 of free-connex
        // members, where the whole union plans too and would pay two
        // redundant passes plus cross-member dedup. Union minimization must
        // drop the subsumed members before any stage is planned: the
        // executed plan has zero materializations and zero chosen atoms for
        // the surviving member, which answers for the whole union.
        let unions = [
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
            "Q1(x, y) <- R1(x, y)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)\n\
             Q3(x, y) <- R1(x, y), R2(y, z), R3(z, w)",
        ];
        let i = inst(&[
            ("R1", (0..40).map(|k| (k, k + 1)).collect()),
            ("R2", (0..40).map(|k| (k + 1, (k + 2) % 30)).collect()),
            ("R3", (0..40).map(|k| ((k + 2) % 30, k)).collect()),
        ]);
        for text in unions {
            let eng = UcqEngine::new(parse_ucq(text).unwrap());
            assert_eq!(
                eng.classification().minimized.len(),
                1,
                "the subsumed members are gone before planning: {text}"
            );
            let Verdict::FreeConnex { plan } = &eng.classification().verdict else {
                panic!("minimized union is free-connex");
            };
            assert!(!plan.needs_extension(), "no stages for a redundant union");
            assert!(plan.atoms.is_empty());
            let got = eng.enumerate(&i).unwrap().collect_all();
            let want = naive_set(text, &i);
            assert!(!want.is_empty());
            assert_eq!(got.len(), want.len(), "minimization keeps the answers");
        }
    }

    #[test]
    fn a_projecting_union_extension_probes_through_its_lifts_on_every_rung() {
        // Example 2 answered on (x, y): w is R3's and R2's determined column
        // in Q1 and Q2, so each member lifts (x, y) to its w on y.
        let u = parse_ucq(
            "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
             Q2(x, y, w) <- R1(x, y), R2(y, w)",
        )
        .unwrap();
        let w_by = |m: usize, rel: &str| {
            let cq = &u.cqs()[m];
            vec![LiftStep {
                rel: rel.into(),
                cols: vec![0],
                col: 1,
                key: vec![cq.var_id("y").unwrap()],
                var: cq.var_id("w").unwrap(),
            }]
        };
        let eng = UcqEngine::projecting(u.clone(), vec![w_by(0, "R3"), w_by(1, "R2")]);
        assert_eq!(eng.strategy(), Strategy::UnionExtension);
        let i = inst(&[
            ("R1", vec![(1, 2), (1, 3), (9, 7), (4, 2), (6, 5)]),
            ("R2", vec![(2, 3), (3, 4), (7, 0)]),
            ("R3", vec![(3, 4), (4, 5), (0, 2)]),
        ]);
        let project = |i: &Instance| -> HashSet<Tuple> {
            let all = evaluate_ucq_naive_set(&u, i).unwrap();
            all.iter()
                .map(|t| Tuple::from_row(&t.values()[..2]))
                .collect()
        };
        let distinct = |mut answers: UcqAnswers| {
            let got = answers.collect_all();
            let set: HashSet<Tuple> = got.iter().cloned().collect();
            assert_eq!(got.len(), set.len(), "repeated answer in {got:?}");
            set
        };
        let want = project(&i);
        assert!(want.contains(&Tuple::from(&[1i64, 3][..])), "both members");
        assert_eq!(distinct(eng.enumerate(&i).unwrap()), want, "one-shot");
        let session = eng.session(&i);
        assert_eq!(distinct(session.enumerate().unwrap()), want, "session");
        let frozen = session.freeze().unwrap();
        let built = sets_built_on_demand(&frozen);
        assert_eq!(distinct(frozen.enumerate().unwrap()), want, "frozen");
        assert_eq!(sets_built_on_demand(&frozen), built, "freeze warmed them");

        // R2 is a lift's relation as well as an atom's.
        let r2 = frozen.build_context().insert_rows(
            &i.get_shared("R2").unwrap(),
            &Relation::from_pairs([(5, 3)]),
        );
        let i2 = i.with_relation_shared("R2", r2);
        let next = frozen.refreeze(&i2).unwrap();
        let want2 = project(&i2);
        assert_ne!(want2, want, "the delta shows");
        assert_eq!(distinct(next.enumerate().unwrap()), want2, "refrozen");
        assert_eq!(distinct(frozen.enumerate().unwrap()), want, "old epoch");
    }
}

#[cfg(test)]
mod decide_tests {
    use super::*;
    use ucq_query::parse_ucq;
    use ucq_storage::Relation;

    #[test]
    fn decide_free_connex_union() {
        let u = parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap();
        let eng = UcqEngine::new(u);
        let yes: Instance = [
            ("R", Relation::new(2)),
            ("S", Relation::from_pairs([(1, 1)])),
        ]
        .into_iter()
        .collect();
        assert!(eng.decide(&yes).unwrap());
        let no: Instance = [("R", Relation::new(2)), ("S", Relation::new(2))]
            .into_iter()
            .collect();
        assert!(!eng.decide(&no).unwrap());
    }

    #[test]
    fn decide_via_enumeration_for_hard_queries() {
        let u = parse_ucq("Q(x, y) <- A(x, z), B(z, y)").unwrap();
        let eng = UcqEngine::new(u);
        let yes: Instance = [
            ("A", Relation::from_pairs([(1, 2)])),
            ("B", Relation::from_pairs([(2, 3)])),
        ]
        .into_iter()
        .collect();
        assert!(eng.decide(&yes).unwrap());
        let no: Instance = [
            ("A", Relation::from_pairs([(1, 2)])),
            ("B", Relation::from_pairs([(9, 3)])),
        ]
        .into_iter()
        .collect();
        assert!(!eng.decide(&no).unwrap());
    }
}
