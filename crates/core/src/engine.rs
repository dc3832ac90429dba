//! The top-level engine: classify once, then evaluate instances with the
//! best applicable strategy.
//!
//! Two shapes of use:
//!
//! * **One-shot** — [`UcqEngine::enumerate`] builds a private context per
//!   call (unchanged public signature).
//! * **Session** — [`UcqEngine::session`] pins an instance and returns an
//!   [`EvalSession`] whose context (dictionary, interned relations,
//!   normalizations, [`IndexCache`](ucq_storage::IndexCache)) and
//!   preprocessed per-member engines persist across calls: repeated
//!   [`EvalSession::enumerate`]s skip the linear preprocessing entirely —
//!   the "serve traffic" shape.
//! * **Frozen session** — [`EvalSession::freeze`] snapshots the prepared
//!   session into a [`FrozenSession`]: `Send + Sync`, drivable from any
//!   number of threads at once, with no lock on the per-answer hot path
//!   (see [`ucq_storage::FrozenContext`]). Each [`FrozenSession::enumerate`]
//!   call hands the calling thread its own cursors and scratch.

use crate::algorithm1::Algorithm1;
use crate::classify::{classify_with, Classification, CqStatus, Verdict};
use crate::cost::CostedSearch;
use crate::naive_ucq::{evaluate_ucq_naive_ids_in, evaluate_ucq_naive_in};
use crate::pipeline::{UcqPipeline, UcqPipelinePrep};
use crate::plan::ExtensionPlan;
use crate::search::SearchConfig;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use ucq_enumerate::{Enumerator, IdDecoder, IdVecEnumerator};
use ucq_query::Ucq;
use ucq_storage::sync::OnceLock;
use ucq_storage::{CtxView, Instance, Tuple};
use ucq_yannakakis::{CdyEngine, EvalError, IdTable, SharedShapes};

/// Materializes the naive union on the id layer and wraps it in the
/// lazily-decoding value facade (ids stay interned under `ctx`; one decode
/// per answer actually pulled).
fn naive_id_answers(
    ucq: &Ucq,
    instance: &Instance,
    ctx: &CtxView,
) -> Result<IdDecoder<IdVecEnumerator>, EvalError> {
    let table = evaluate_ucq_naive_ids_in(ucq, instance, ctx)?;
    Ok(IdDecoder::new(
        IdVecEnumerator::new(table.width, table.data, table.n_rows),
        ctx.clone(),
    ))
}

/// Replays a pre-materialized naive answer table through the lazily
/// decoding value facade (the frozen-session serve path).
fn replay_id_table(table: &IdTable, ctx: &CtxView) -> IdDecoder<IdVecEnumerator> {
    IdDecoder::new(
        IdVecEnumerator::new(table.width, table.data.clone(), table.n_rows),
        ctx.clone(),
    )
}

/// Builds the membership sets Algorithm 1 will probe — every member's but
/// the first's, which is only ever enumerated — so that the writer pays for
/// them at freeze/refreeze and no served request does. (Already built sets
/// are left alone; one-shot evaluation stays lazy.)
fn warm_probed_members(engines: &[Arc<CdyEngine>]) {
    for eng in engines.iter().skip(1) {
        eng.warm_membership();
    }
}

/// Which evaluation strategy a run used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Algorithm 1 (Theorem 4): all members free-connex; constant writable
    /// memory during enumeration.
    Algorithm1,
    /// The Theorem 12 union-extension pipeline.
    UnionExtension,
    /// Materializing fallback for intractable/unknown queries.
    Naive,
}

/// Counters for the cost-based planner, snapshot per session alongside
/// [`ucq_storage::ContextStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Full cost-based plan searches run (one per plan-cache miss).
    pub plans_searched: usize,
    /// Candidate extension sets priced across all searches.
    pub candidates_costed: usize,
    /// Plan-cache hits: `(query fingerprint, stats epoch)` matched a plan
    /// stored by an earlier session over the same context.
    pub plan_cache_hits: usize,
}

/// Interior-mutable planner counters (sessions hand out `&self` streams).
#[derive(Default)]
struct PlannerCounters {
    plans_searched: Cell<usize>,
    candidates_costed: Cell<usize>,
    plan_cache_hits: Cell<usize>,
}

impl PlannerCounters {
    fn snapshot(&self) -> PlannerStats {
        PlannerStats {
            plans_searched: self.plans_searched.get(),
            candidates_costed: self.candidates_costed.get(),
            plan_cache_hits: self.plan_cache_hits.get(),
        }
    }
}

/// A classified UCQ ready to evaluate instances.
pub struct UcqEngine {
    ucq: Ucq,
    cfg: SearchConfig,
    classification: Classification,
    /// The instance-independent half of the costed planner (availability
    /// fixpoint + candidate extension sets), prepared lazily on the first
    /// plan-cache miss and shared by every later miss: fresh contexts
    /// re-*price* the candidates, they never re-*search*.
    costed: OnceLock<Option<CostedSearch>>,
}

impl UcqEngine {
    /// Classifies `ucq` with default search bounds.
    pub fn new(ucq: Ucq) -> UcqEngine {
        UcqEngine::with_config(ucq, &SearchConfig::default())
    }

    /// Classifies `ucq` with explicit search bounds.
    pub fn with_config(ucq: Ucq, cfg: &SearchConfig) -> UcqEngine {
        let classification = classify_with(&ucq, cfg);
        UcqEngine {
            ucq,
            cfg: cfg.clone(),
            classification,
            costed: OnceLock::new(),
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

    /// The strategy [`UcqEngine::enumerate`] will pick.
    pub fn strategy(&self) -> Strategy {
        match &self.classification.verdict {
            Verdict::FreeConnex { plan } => {
                let all_fc = self
                    .classification
                    .statuses
                    .iter()
                    .all(|s| *s == CqStatus::FreeConnex);
                if all_fc && !plan.needs_extension() {
                    Strategy::Algorithm1
                } else {
                    Strategy::UnionExtension
                }
            }
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
        let minimized = &self.classification.minimized;
        match self.strategy() {
            Strategy::Algorithm1 => Ok(UcqAnswers {
                strategy: Strategy::Algorithm1,
                inner: Box::new(Algorithm1::build_in(minimized, instance, ctx)?),
            }),
            Strategy::UnionExtension => {
                let plan = self.executable_plan(ctx, instance, None);
                Ok(UcqAnswers {
                    strategy: Strategy::UnionExtension,
                    inner: Box::new(UcqPipeline::build_in(minimized, &plan, instance, ctx)?),
                })
            }
            Strategy::Naive => Ok(UcqAnswers {
                strategy: Strategy::Naive,
                inner: Box::new(naive_id_answers(minimized, instance, ctx)?),
            }),
        }
    }

    /// The plan the union-extension strategy should execute over
    /// `instance`: the cached plan when `(query fingerprint, stats epoch)`
    /// matches, otherwise a fresh costing pass over the engine's prepared
    /// [`CostedSearch`], stored so the next session over this context skips
    /// the pricing too. Falls back to the classification's first-found
    /// certificate if the costed search comes up empty (it enumerates the
    /// same candidates, so this is belt-and-braces).
    fn executable_plan(
        &self,
        ctx: &CtxView,
        instance: &Instance,
        counters: Option<&PlannerCounters>,
    ) -> Arc<ExtensionPlan> {
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
                    c.plan_cache_hits.set(c.plan_cache_hits.get() + 1);
                }
                return plan;
            }
        }
        if let Some(c) = counters {
            c.plans_searched.set(c.plans_searched.get() + 1);
        }
        let search = self
            .costed
            .get_or_init(|| CostedSearch::prepare(minimized, &self.cfg));
        let plan = match search.as_ref().map(|s| s.plan(instance, ctx)) {
            Some(costed) => {
                if let Some(c) = counters {
                    c.candidates_costed
                        .set(c.candidates_costed.get() + costed.candidates_costed);
                }
                Arc::new(costed.plan)
            }
            None => {
                let Verdict::FreeConnex { plan } = &self.classification.verdict else {
                    unreachable!("union-extension strategy implies a free-connex verdict");
                };
                Arc::new(plan.clone())
            }
        };
        ctx.store_plan(fingerprint, epoch, plan.clone());
        plan
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
            prepared: RefCell::new(None),
            planner: PlannerCounters::default(),
        }
    }

    /// Forces the naive strategy (baseline for experiments).
    pub fn enumerate_naive(&self, instance: &Instance) -> Result<Vec<Tuple>, EvalError> {
        evaluate_ucq_naive_in(&self.classification.minimized, instance, &CtxView::new())
    }

    /// `Decide⟨Q⟩`: whether the union has at least one answer. For unions
    /// of free-connex members this is a pure preprocessing question (each
    /// member's CDY `decide()` after its linear pass); otherwise it asks
    /// the chosen enumeration strategy for a first answer.
    pub fn decide(&self, instance: &Instance) -> Result<bool, EvalError> {
        let ctx = CtxView::new();
        let minimized = &self.classification.minimized;
        if minimized
            .cqs()
            .iter()
            .all(|cq| matches!(crate::classify::cq_status(cq), CqStatus::FreeConnex))
        {
            for cq in minimized.cqs() {
                if CdyEngine::for_query_in(cq, instance, &ctx)?.decide() {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        Ok(self.enumerate_in(&ctx, instance)?.has_answer())
    }
}

/// The per-strategy preprocessed state an [`EvalSession`] caches.
enum Prepared {
    /// Per-member CDY engines (Algorithm 1 restarts enumerators off them).
    Algorithm1(Vec<Arc<CdyEngine>>),
    /// The Theorem 12 prep: materializations folded into member engines.
    Union(UcqPipelinePrep),
    /// Naive fallback has no reusable enumeration structure beyond the
    /// context caches themselves.
    Naive,
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
    prepared: RefCell<Option<Prepared>>,
    planner: PlannerCounters,
}

impl EvalSession<'_> {
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

    fn ensure_prepared(&self) -> Result<(), EvalError> {
        if self.prepared.borrow().is_some() {
            return Ok(());
        }
        let minimized = &self.engine.classification.minimized;
        let prep = match self.engine.strategy() {
            Strategy::Algorithm1 => Prepared::Algorithm1(Algorithm1::member_engines(
                minimized,
                &self.instance,
                &self.ctx,
            )?),
            Strategy::UnionExtension => {
                let plan =
                    self.engine
                        .executable_plan(&self.ctx, &self.instance, Some(&self.planner));
                Prepared::Union(UcqPipelinePrep::prepare(
                    minimized,
                    &plan,
                    &self.instance,
                    &self.ctx,
                )?)
            }
            Strategy::Naive => Prepared::Naive,
        };
        *self.prepared.borrow_mut() = Some(prep);
        Ok(())
    }

    /// Starts an enumeration. The first call performs the linear
    /// preprocessing; subsequent calls only restart enumeration cursors.
    pub fn enumerate(&self) -> Result<UcqAnswers, EvalError> {
        self.ensure_prepared()?;
        let prepared = self.prepared.borrow();
        match prepared.as_ref().expect("just prepared") {
            Prepared::Algorithm1(engines) => Ok(UcqAnswers {
                strategy: Strategy::Algorithm1,
                inner: Box::new(Algorithm1::from_engines_in(
                    engines.clone(),
                    self.ctx.clone(),
                )),
            }),
            Prepared::Union(prep) => Ok(UcqAnswers {
                strategy: Strategy::UnionExtension,
                inner: Box::new(prep.start()),
            }),
            Prepared::Naive => Ok(UcqAnswers {
                strategy: Strategy::Naive,
                inner: Box::new(naive_id_answers(
                    &self.engine.classification.minimized,
                    &self.instance,
                    &self.ctx,
                )?),
            }),
        }
    }

    /// `Decide⟨Q⟩` against the pinned instance, reusing the session's
    /// preprocessed engines when available.
    pub fn decide(&self) -> Result<bool, EvalError> {
        self.ensure_prepared()?;
        let prepared = self.prepared.borrow();
        match prepared.as_ref().expect("just prepared") {
            Prepared::Algorithm1(engines) => Ok(engines.iter().any(|e| e.decide())),
            _ => {
                drop(prepared);
                Ok(self.enumerate()?.has_answer())
            }
        }
    }
}

impl<'e> EvalSession<'e> {
    /// Ends the build phase: runs the linear preprocessing if it has not
    /// run yet, snapshots the context into an immutable
    /// [`ucq_storage::FrozenContext`], and retargets the prepared engines
    /// onto the snapshot — no preprocessing is repeated. The result is
    /// `Send + Sync`: N threads can call [`FrozenSession::enumerate`]
    /// concurrently, each getting its own cursors, with zero locking on
    /// the per-answer path.
    ///
    /// For the naive strategy the answer table is materialized here, once,
    /// so post-freeze calls replay it instead of re-joining (and the ids
    /// land below the frozen watermark).
    pub fn freeze(self) -> Result<FrozenSession<'e>, EvalError> {
        self.ensure_prepared()?;
        let minimized = &self.engine.classification.minimized;
        let naive_table = match self.prepared.borrow().as_ref().expect("just prepared") {
            Prepared::Naive => Some(evaluate_ucq_naive_ids_in(
                minimized,
                &self.instance,
                &self.ctx,
            )?),
            _ => None,
        };
        let build_ctx = self.ctx.clone();
        let view = self.ctx.freeze();
        let prepared = match self.prepared.into_inner().expect("just prepared") {
            Prepared::Algorithm1(mut engines) => {
                warm_probed_members(&engines);
                for eng in &mut engines {
                    // A leftover live enumerator (pre-freeze `enumerate()`
                    // stream) pins the Arc; such an engine keeps the
                    // build-phase view — same ids, just mutex-guarded.
                    if let Some(e) = Arc::get_mut(eng) {
                        e.set_view(view.clone());
                    }
                }
                FrozenPrepared::Algorithm1(engines)
            }
            Prepared::Union(mut prep) => {
                prep.retarget(&view);
                FrozenPrepared::Union(prep)
            }
            Prepared::Naive => FrozenPrepared::Naive(naive_table.expect("materialized above")),
        };
        Ok(FrozenSession {
            engine: self.engine,
            instance: self.instance,
            ctx: view,
            build_ctx,
            prepared,
            planner: self.planner.snapshot(),
        })
    }
}

/// The per-strategy state a [`FrozenSession`] serves from. Unlike
/// [`Prepared`], every variant is immutable and shareable.
enum FrozenPrepared {
    /// Per-member CDY engines retargeted onto the frozen snapshot.
    Algorithm1(Vec<Arc<CdyEngine>>),
    /// The Theorem 12 prep retargeted onto the frozen snapshot.
    Union(UcqPipelinePrep),
    /// The naive answer table, materialized at freeze time; enumerations
    /// replay it.
    Naive(IdTable),
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
    prepared: FrozenPrepared,
    planner: PlannerStats,
}

impl FrozenSession<'_> {
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
    /// owning its cursors, dedup table and scratch, while all streams read
    /// the same frozen dictionary, relations and indexes lock-free.
    pub fn enumerate(&self) -> Result<UcqAnswers, EvalError> {
        match &self.prepared {
            // This session's view, not one of the engines': after a
            // refreeze the members hold views of different epochs, and
            // only the newest decodes every member's ids.
            FrozenPrepared::Algorithm1(engines) => Ok(UcqAnswers {
                strategy: Strategy::Algorithm1,
                inner: Box::new(Algorithm1::from_engines_in(
                    engines.clone(),
                    self.ctx.clone(),
                )),
            }),
            FrozenPrepared::Union(prep) => Ok(UcqAnswers {
                strategy: Strategy::UnionExtension,
                inner: Box::new(prep.start()),
            }),
            FrozenPrepared::Naive(table) => Ok(UcqAnswers {
                strategy: Strategy::Naive,
                inner: Box::new(replay_id_table(table, &self.ctx)),
            }),
        }
    }

    /// `Decide⟨Q⟩` against the frozen state (no preprocessing, no joins).
    pub fn decide(&self) -> Result<bool, EvalError> {
        match &self.prepared {
            FrozenPrepared::Algorithm1(engines) => Ok(engines.iter().any(|e| e.decide())),
            FrozenPrepared::Naive(table) => Ok(table.n_rows > 0),
            FrozenPrepared::Union(_) => Ok(self.enumerate()?.has_answer()),
        }
    }

    /// The build-phase context behind this snapshot — the write side of the
    /// session. Deltas go here
    /// ([`EvalContext::insert_rows`](ucq_storage::EvalContext::insert_rows) /
    /// [`delete_rows`](ucq_storage::EvalContext::delete_rows) via the view),
    /// then [`FrozenSession::refreeze`] publishes them as the next epoch.
    pub fn build_context(&self) -> &CtxView {
        &self.build_ctx
    }

    #[cfg(test)]
    fn a1_engines(&self) -> Option<&[Arc<CdyEngine>]> {
        match &self.prepared {
            FrozenPrepared::Algorithm1(engines) => Some(engines),
            _ => None,
        }
    }
}

impl<'e> FrozenSession<'e> {
    /// Whether any relation this session's (minimized) query reads differs
    /// between the pinned instance and `instance` — by `Arc` identity, which
    /// is exactly what the delta-ingestion API preserves for untouched
    /// relations.
    fn touched(&self, instance: &Instance, names: &[&str]) -> bool {
        names.iter().any(
            |n| match (self.instance.get_shared(n), instance.get_shared(n)) {
                (Some(a), Some(b)) => !Arc::ptr_eq(&a, &b),
                (None, None) => false,
                _ => true,
            },
        )
    }

    /// Builds the **next epoch** of this frozen session over `instance`,
    /// doing work proportional to the delta rather than the database.
    ///
    /// `instance` is expected to differ from the pinned instance only in
    /// relations replaced through the delta-ingestion API
    /// (`insert_rows`/`delete_rows` on [`FrozenSession::build_context`],
    /// spliced in with
    /// [`Instance::with_relation_shared`](ucq_storage::Instance::with_relation_shared)),
    /// so untouched relations keep their `Arc` identity. The new snapshot is
    /// taken from the same build context, so every untouched relation,
    /// index, derived normalization and cached plan is *shared* with the
    /// previous epoch — only state downstream of a touched relation is
    /// rebuilt:
    ///
    /// * **Algorithm 1** — members whose relations are all untouched keep
    ///   their prepared engine (pinned to the previous epoch's view, which
    ///   stays valid: both epochs share one dictionary lineage); touched
    ///   members rebuild against the caches `insert_rows` carried over —
    ///   the mirror, the normalizations and the separator indexes cached
    ///   on them — so an insert costs the member a re-probe of its parent
    ///   rows and an arena scan, not a re-hash. (A delete drops the
    ///   touched relation's normalizations; those, and their indexes, are
    ///   rebuilt once for all members.)
    /// * **Union extension** — an untouched union clones the prep wholesale;
    ///   otherwise the plan is re-costed (the churn ledger bumps the stats
    ///   epoch past the replan threshold, so skew flips surface here) and
    ///   the pipeline re-prepares.
    /// * **Naive** — the materialized answer table is recomputed only when
    ///   touched.
    ///
    /// The old session keeps serving its own epoch untouched throughout —
    /// pair with [`ucq_storage::EpochCell`] to rotate live traffic.
    pub fn refreeze(&self, instance: &Instance) -> Result<FrozenSession<'e>, EvalError> {
        let minimized = &self.engine.classification.minimized;
        if !self.touched(instance, &minimized.relation_names()) {
            // Nothing the query reads changed: the next epoch *is* the
            // current one, minus the snapshot cost.
            let prepared = match &self.prepared {
                FrozenPrepared::Algorithm1(engines) => FrozenPrepared::Algorithm1(engines.clone()),
                FrozenPrepared::Union(prep) => FrozenPrepared::Union(prep.clone()),
                FrozenPrepared::Naive(table) => FrozenPrepared::Naive(table.clone()),
            };
            return Ok(FrozenSession {
                engine: self.engine,
                instance: instance.clone(),
                ctx: self.ctx.clone(),
                build_ctx: self.build_ctx.clone(),
                prepared,
                planner: self.planner,
            });
        }
        // Rebuild touched state against the build context *before* taking
        // the snapshot, so everything it interns, indexes, materializes or
        // plans lands below the new epoch's watermark (no overlay traffic
        // at serve time).
        let prepared = match &self.prepared {
            FrozenPrepared::Algorithm1(engines) => {
                let mut rebuilt: Vec<(usize, CdyEngine)> = Vec::new();
                let mut next = engines.clone();
                // The whole union's shapes, not the touched members': the
                // rebuilt engines must root where the first build did, or
                // they would ask for indexes nobody cached.
                let shared = SharedShapes::of(minimized.cqs());
                for (i, cq) in minimized.cqs().iter().enumerate() {
                    if self.touched(instance, &cq.relation_names()) {
                        let eng = CdyEngine::for_member_in(cq, &shared, instance, &self.build_ctx)?;
                        rebuilt.push((i, eng));
                    }
                }
                let view = self.build_ctx.freeze();
                for (i, mut eng) in rebuilt {
                    eng.set_view(view.clone());
                    next[i] = Arc::new(eng);
                }
                warm_probed_members(&next);
                return Ok(FrozenSession {
                    engine: self.engine,
                    instance: instance.clone(),
                    ctx: view,
                    build_ctx: self.build_ctx.clone(),
                    prepared: FrozenPrepared::Algorithm1(next),
                    planner: self.planner,
                });
            }
            FrozenPrepared::Union(_) => {
                let plan = self.engine.executable_plan(&self.build_ctx, instance, None);
                FrozenPrepared::Union(UcqPipelinePrep::prepare(
                    minimized,
                    &plan,
                    instance,
                    &self.build_ctx,
                )?)
            }
            FrozenPrepared::Naive(_) => FrozenPrepared::Naive(evaluate_ucq_naive_ids_in(
                minimized,
                instance,
                &self.build_ctx,
            )?),
        };
        let view = self.build_ctx.freeze();
        let prepared = match prepared {
            FrozenPrepared::Union(mut prep) => {
                prep.retarget(&view);
                FrozenPrepared::Union(prep)
            }
            other => other,
        };
        Ok(FrozenSession {
            engine: self.engine,
            instance: instance.clone(),
            ctx: view,
            build_ctx: self.build_ctx.clone(),
            prepared,
            planner: self.planner,
        })
    }
}

/// A strategy-tagged answer stream. `Send`, so a serving thread can take
/// an enumeration with it (each stream owns its cursors and scratch).
pub struct UcqAnswers {
    strategy: Strategy,
    inner: Box<dyn Enumerator + Send>,
}

impl UcqAnswers {
    /// Which strategy produced this stream.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// `Decide` by enumeration: asks for one answer, and says so first, so
    /// that a block-decoding arm prepares one row rather than a block.
    fn has_answer(mut self) -> bool {
        self.expect_at_most(1);
        self.next().is_some()
    }
}

impl Enumerator for UcqAnswers {
    fn next(&mut self) -> Option<Tuple> {
        self.inner.next()
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
        assert_eq!(p1.plans_searched, 1, "first session runs the search");
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
        assert_eq!(p2.plans_searched, 0, "second session skips the search");
        assert_eq!(p2.plan_cache_hits, 1, "cached plan reused");
        assert_eq!(p2.candidates_costed, 0);
    }

    #[test]
    fn churned_skew_flips_the_cheapest_provider() {
        use crate::cost::plan_free_connex_costed;
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
        let uniform = plan_free_connex_costed(&u, &SearchConfig::default(), &base, &ctx).unwrap();
        let before = uniform.plan.atoms[0].provenance.provider;

        // Skew R2: a delta far past the 25% churn threshold bumps the
        // stats epoch, so the cached plan goes stale …
        let e0 = ctx.stats_epoch();
        let delta = Relation::from_pairs((0..400i64).map(|i| (i % 5, i + 10)));
        let r2 = ctx.insert_rows(&base.get_shared("R2").unwrap(), &delta);
        let skewed = base.with_relation_shared("R2", r2);
        assert!(ctx.stats_epoch() > e0, "heavy churn bumps the stats epoch");

        // … the next session re-searches instead of hitting the cache …
        let second = eng.session_in(&ctx, &skewed);
        second.enumerate().unwrap();
        let p2 = second.planner_stats();
        assert_eq!(p2.plan_cache_hits, 0, "stale plan must not be reused");
        assert_eq!(p2.plans_searched, 1, "churned stats force a re-search");

        // … and the re-costed plan routes the extension through the other
        // provider (R2's blow-up makes Q3's R1 ⋈ R4 the cheap one).
        let recosted =
            plan_free_connex_costed(&u, &SearchConfig::default(), &skewed, &ctx).unwrap();
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
        let old = frozen.a1_engines().unwrap();
        let new = next.a1_engines().unwrap();
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
        let engines = next.a1_engines().unwrap().to_vec();
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
        let direct: HashSet<Tuple> = Algorithm1::from_engines(engines)
            .collect_all()
            .into_iter()
            .collect();
        assert_eq!(direct, want, "from_engines picks the highest watermark");
    }

    fn sets_built_on_demand(frozen: &FrozenSession<'_>) -> usize {
        let engines = frozen.a1_engines().unwrap();
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
    }

    #[test]
    fn a_request_for_one_answer_says_so_to_its_producer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use ucq_enumerate::{Budgeted, QueryBudget};
        struct Probe(Arc<AtomicUsize>);
        impl Enumerator for Probe {
            fn next(&mut self) -> Option<Tuple> {
                Some(Tuple::empty())
            }
            fn expect_at_most(&mut self, rows: usize) {
                self.0.store(rows, Ordering::Relaxed);
            }
        }
        let hinted = Arc::new(AtomicUsize::new(0));
        let answers = || UcqAnswers {
            strategy: Strategy::UnionExtension,
            inner: Box::new(Probe(Arc::clone(&hinted))),
        };
        assert!(answers().has_answer());
        assert_eq!(hinted.load(Ordering::Relaxed), 1);
        // An answer cap travels the same way: n answers and the one beyond.
        let budget = QueryBudget::unlimited().with_max_answers(40);
        let mut page = Budgeted::new(answers(), budget);
        assert_eq!(page.collect_all().len(), 40);
        assert_eq!(hinted.load(Ordering::Relaxed), 41);
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
    fn redundant_member_gets_no_stages() {
        // Example 1 shape: Q1 ⊆ Q2, and Q1 alone is cyclic (it would be
        // hopeless to plan). Union minimization must drop it before any
        // stage is planned: the executed plan has zero materializations and
        // zero chosen atoms for the surviving member.
        let u = parse_ucq(
            "Q1(x, y) <- R1(x, y), R2(y, z), R3(z, x)\n\
             Q2(x, y) <- R1(x, y), R2(y, z)",
        )
        .unwrap();
        let eng = UcqEngine::new(u);
        assert_eq!(
            eng.classification().minimized.len(),
            1,
            "the subsumed member is gone before planning"
        );
        let Verdict::FreeConnex { plan } = &eng.classification().verdict else {
            panic!("minimized union is free-connex");
        };
        assert!(!plan.needs_extension(), "no stages for a redundant union");
        assert!(plan.atoms.is_empty());
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
