//! The traced run: what each layer does, timed from outside around public
//! calls. A cold request is re-composed from those calls in the engine's
//! own order against one context, so each call's time is that layer's work;
//! served requests and churn rounds are wrapped where they cross the pool.
//!
//! One pass measures every per-layer metric once; passes repeat until
//! `--seconds` is used up. A timed metric reports the median over passes, a
//! count must come out the same in every pass.

use crate::calib::Calibration;
use crate::data::{ChurnOp, ChurnPlan, Dataset, Shape, SplitMix};
use crate::e2e::{
    churn_cycle, cycle_seed, overflowed, require_balanced, serve_config, verify_checkpoints,
    Outcome, RunSpec, Side, Workload,
};
use crate::metrics::{Values, PER_LAYER};
use crate::ops::{
    cold_request, delay_pass, delay_stat, ms_since, reply_shape_ok, submit, timed, Gate, Kind,
    Target,
};
use crate::stats::{median, percentile};
use crate::trace::{coverage, requests_rooted, root_ms, self_ms_per_request, write_jsonl, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use ucq_core::lemma8::materialize_atom_in;
use ucq_core::{Algorithm1, CostedSearch, FrozenSession, SearchConfig, UcqEngine};
use ucq_enumerate::{
    Budgeted, Cheater, CheaterStats, Enumerator, IdChainEnumerator, IdEnumerator, IdVecEnumerator,
    QueryBudget, DEFAULT_BLOCK_ROWS,
};
use ucq_hypergraph::join_tree;
use ucq_serve::{serve, BoundedQueue, ReplySlot, ServeHandle};
use ucq_storage::{ContextStats, CtxView, HashIndex, IdBlock, IdRel, Tuple, Value, ValueId};
use ucq_yannakakis::{atom_signature, full_reduce, CdyEngine, NodeRel, OwnedCdyIter};

/// Values gathered over the passes of one traced run.
#[derive(Default)]
struct Acc {
    pass: usize,
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Acc {
    /// Adds `value` to metric `name` in the current pass (a metric measured
    /// on several datasets is their sum).
    fn add(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a per-layer metric"
        );
        let passes = self.by_name.entry(name).or_default();
        passes.resize(self.pass + 1, 0.0);
        passes[self.pass] += value;
    }

    /// Medians of the timed metrics; the counts, each checked to have
    /// repeated over the passes.
    fn into_values(self, gate: &mut Gate) -> Values {
        let mut values = Values::default();
        for def in PER_LAYER {
            let Some(passes) = self.by_name.get(def.name) else {
                continue;
            };
            if def.exact {
                gate.require(passes.iter().all(|v| *v == passes[0]), || {
                    format!("count {} changed between passes: {passes:?}", def.name)
                });
                values.set(def.name, passes[0]);
            } else {
                values.set(def.name, median(&mut passes.clone()));
            }
        }
        values
    }
}

/// The preprocessed state of one cold request, re-composed from public
/// calls: what `UcqEngine::enumerate_in` builds before it returns.
struct Prepared {
    ctx: CtxView,
    engines: Vec<Arc<CdyEngine>>,
    /// Theorem 12 only: the provider answers emitted while materializing.
    early: Option<Early>,
    dict_len: usize,
    plan_candidates: usize,
    lemma8_rows: usize,
}

struct Early {
    ids: Vec<ValueId>,
    answers: usize,
    arity: usize,
    /// Lemma 5's duplication bound.
    budget: usize,
}

/// A started enumeration of either strategy.
enum Started {
    Algorithm1(Algorithm1),
    Extension(Cheater<IdChainEnumerator>),
}

impl Enumerator for Started {
    fn next(&mut self) -> Option<Tuple> {
        match self {
            Started::Algorithm1(a) => a.next(),
            Started::Extension(c) => c.next(),
        }
    }
}

impl Prepared {
    /// Runs the preprocessing of a cold request layer by layer, each call
    /// under its own span.
    fn build(tr: &mut Tracer, side: &Side, search: &CostedSearch) -> Prepared {
        let union = &side.engine.classification().minimized;
        let instance = &side.data.instance;
        let ctx = CtxView::new();
        tr.leaf("storage.intern", || {
            for name in union.relation_names() {
                if let Some(rel) = instance.get_shared(name) {
                    ctx.interned_rel(&rel);
                }
            }
        });
        let dict_len = ctx.dict_len();
        tr.leaf("storage.normalize", || {
            for atom in union.cqs().iter().flat_map(|cq| cq.atoms()) {
                if let Some(stored) = instance.get_shared(&atom.rel) {
                    ctx.normalized_rel(&stored, &atom_signature(&atom.args));
                }
            }
        });
        if side.data.shape == Shape::FreeConnex {
            let engines = tr.leaf("yannakakis.cdy_build", || {
                Algorithm1::member_engines(union, instance, &ctx).expect("members are free-connex")
            });
            return Prepared {
                ctx,
                engines,
                early: None,
                dict_len,
                plan_candidates: 0,
                lemma8_rows: 0,
            };
        }
        let costed = tr.leaf("core.plan_cost", || search.plan(instance, &ctx));
        let plan = costed.plan;
        let mut extended = instance.clone();
        let mut early = Early {
            ids: Vec::new(),
            answers: 0,
            arity: union.head_arity(),
            budget: union.len() + plan.atoms.len() + 1,
        };
        let mut lemma8_rows = 0;
        tr.leaf("core.lemma8", || {
            let name_of = |t: usize, v: ucq_hypergraph::VSet| plan.atom_for(t, v).rel_name.clone();
            for atom in &plan.atoms {
                let m = materialize_atom_in(union, atom, &name_of, &extended, &ctx)
                    .expect("planned atoms materialize");
                lemma8_rows += m.relation.len();
                extended.insert_shared(atom.rel_name.clone(), m.relation);
                early.ids.extend_from_slice(&m.provider_ids);
                early.answers += m.n_provider_answers;
            }
        });
        let engines = tr.leaf("yannakakis.cdy_build", || {
            (0..union.len())
                .map(|i| {
                    let cq = plan.extended_query(union, i);
                    Arc::new(CdyEngine::for_query_in(&cq, &extended, &ctx).expect("extended"))
                })
                .collect()
        });
        Prepared {
            ctx,
            engines,
            early: Some(early),
            dict_len,
            plan_candidates: costed.candidates_costed,
            lemma8_rows,
        }
    }

    fn start(&self) -> Started {
        let Some(early) = &self.early else {
            return Started::Algorithm1(Algorithm1::from_engines(self.engines.clone()));
        };
        let mut stages: Vec<Box<dyn IdEnumerator + Send>> = vec![Box::new(IdVecEnumerator::new(
            early.arity,
            early.ids.clone(),
            early.answers,
        ))];
        for engine in &self.engines {
            stages.push(Box::new(OwnedCdyIter::new(Arc::clone(engine))));
        }
        Started::Extension(Cheater::with_capacity_hint(
            IdChainEnumerator::new(early.arity, stages),
            early.budget,
            self.ctx.clone(),
            early.answers,
        ))
    }
}

/// Drains an id-level producer block by block, appending the ids to `keep`
/// when given; returns the rows seen.
fn drain_ids(producer: &mut dyn IdEnumerator, mut keep: Option<&mut Vec<ValueId>>) -> usize {
    let mut block = IdBlock::new(producer.arity(), DEFAULT_BLOCK_ROWS);
    let mut rows = 0;
    loop {
        block.clear();
        let n = producer.next_block(&mut block);
        if n == 0 {
            return rows;
        }
        rows += n;
        match keep.as_deref_mut() {
            Some(ids) => ids.extend_from_slice(block.ids()),
            None => {
                black_box(block.ids());
            }
        }
    }
}

/// Pulls every answer and drops it; returns how many came.
fn drop_all(answers: &mut dyn Enumerator) -> usize {
    let mut n = 0;
    while let Some(t) = answers.next() {
        black_box(&t);
        n += 1;
    }
    n
}

fn cold_root(shape: Shape) -> &'static str {
    match shape {
        Shape::FreeConnex => "cold_request.fc",
        Shape::Extension => "cold_request.ext",
    }
}

/// What the cold pass over one dataset found.
struct ColdOut {
    /// Medians of the untraced requests.
    first_ms: f64,
    full_ms: f64,
    /// Median root span of the traced requests.
    traced_ms: f64,
    /// Cache counters of one request's private context.
    cache: ContextStats,
}

/// The cold pass over one dataset: untraced requests for reference, then the
/// same number re-composed under spans.
fn cold_pass(
    acc: &mut Acc,
    gate: &mut Gate,
    tr: &mut Tracer,
    side: &Side,
    requests: usize,
) -> ColdOut {
    let (engine, instance) = (&side.engine, &side.data.instance);
    let (mut first, mut full) = (Vec::new(), Vec::new());
    for _ in 0..requests {
        let sample = cold_request(engine, instance);
        first.push(sample.first_ms);
        full.push(sample.full_ms);
    }
    let t = Instant::now();
    let search =
        CostedSearch::prepare(&engine.classification().minimized, &SearchConfig::default())
            .expect("a tractable union has a plan");
    acc.add("core.plan_prepare_ms", ms_since(t));

    let from = tr.spans().len();
    let mut cache = ContextStats::default();
    for i in 0..requests {
        tr.enter(cold_root(side.data.shape));
        let prepared = Prepared::build(tr, side, &search);
        let mut started = tr.leaf("core.start", || prepared.start());
        let first_answer = tr.leaf("enumerate.first_answer", || started.next());
        let answers = usize::from(first_answer.is_some());
        drop(first_answer);
        let answers = answers + tr.leaf("enumerate.drain", || drop_all(&mut started));
        tr.exit();
        gate.op(answers == side.oracle.len(), || {
            format!("the re-composed request gave {answers} answers")
        });
        if i > 0 {
            continue;
        }
        cache = prepared.ctx.stats();
        acc.add("storage.intern_values", prepared.dict_len as f64);
        acc.add("core.plan_candidates", prepared.plan_candidates as f64);
        acc.add("core.lemma8_rows", prepared.lemma8_rows as f64);
        // Algorithm 1 runs no Cheater: its counters read zero.
        let CheaterStats {
            inner_results,
            duplicates,
            blocks_pumped,
            queue_high_water,
            ..
        } = match &started {
            Started::Extension(cheater) => cheater.stats(),
            Started::Algorithm1(_) => CheaterStats::default(),
        };
        // Duplicates over inner results: the share of pumped work that the
        // dedup threw away.
        acc.add(
            "enumerate.cheater_dup_frac",
            duplicates as f64 / inner_results.max(1) as f64,
        );
        acc.add("enumerate.cheater_blocks_pumped", blocks_pumped as f64);
        acc.add(
            "enumerate.cheater_queue_high_water",
            queue_high_water as f64,
        );
    }
    let spans = &tr.spans()[from..];
    for (metric, span, scale) in [
        ("storage.intern_ms", "storage.intern", 1.0),
        ("storage.normalize_ms", "storage.normalize", 1.0),
        ("core.plan_cost_ms", "core.plan_cost", 1.0),
        ("core.lemma8_ms", "core.lemma8", 1.0),
        ("yannakakis.cdy_build_ms", "yannakakis.cdy_build", 1.0),
        ("core.pipeline_start_us", "core.start", 1e3),
        ("enumerate.first_answer_us", "enumerate.first_answer", 1e3),
    ] {
        acc.add(
            metric,
            median(&mut self_ms_per_request(spans, span)) * scale,
        );
    }
    ColdOut {
        first_ms: median(&mut first),
        full_ms: median(&mut full),
        traced_ms: median(&mut root_ms(spans)),
        cache,
    }
}

/// Times and op counts summed over the workload's datasets; the per-op
/// metrics are their quotients.
#[derive(Default)]
struct Sums {
    index_par_ms: f64,
    index_seq_ms: f64,
    index_rows: usize,
    cdy_ns: f64,
    cdy_rows: usize,
    pump_ns: f64,
    pump_rows: usize,
    value_ns: f64,
    value_rows: usize,
    decode_ns: f64,
    decode_rows: usize,
    naive_ms: f64,
}

impl Sums {
    fn emit(&self, acc: &mut Acc, cold_full_ms: f64) {
        let per = |total: f64, n: usize| total / n.max(1) as f64;
        acc.add("storage.index_build_ms", self.index_par_ms);
        acc.add(
            "storage.index_build_rows_per_s",
            self.index_rows as f64 / (self.index_par_ms / 1e3),
        );
        acc.add(
            "storage.index_par_speedup",
            self.index_seq_ms / self.index_par_ms,
        );
        acc.add("yannakakis.cdy_drain_ns", per(self.cdy_ns, self.cdy_rows));
        acc.add("enumerate.block_pump_ns", per(self.pump_ns, self.pump_rows));
        acc.add(
            "enumerate.decode_share",
            1.0 - per(self.pump_ns, self.pump_rows) / per(self.value_ns, self.value_rows),
        );
        acc.add("storage.decode_ns", per(self.decode_ns, self.decode_rows));
        acc.add("yannakakis.naive_ms", self.naive_ms);
        // The paper's claim reads above 1 here.
        acc.add("core.vs_naive_ratio", self.naive_ms / cold_full_ms);
    }
}

/// Layer calls that no request isolates, timed on their own over one
/// dataset: index builds, the reducer, id-level drains, decode.
fn layer_battery(acc: &mut Acc, sums: &mut Sums, side: &Side) {
    let union = &side.engine.classification().minimized;
    let instance = &side.data.instance;

    let t = Instant::now();
    black_box(UcqEngine::new(side.data.ucq.clone()));
    acc.add("core.classify_ms", ms_since(t));

    // One index per (relation, argument shape, join key): the key of an atom
    // is the columns of the variables it shares with the rest of its query.
    let ctx = CtxView::new();
    let mut keyed: BTreeSet<(String, Vec<u32>, Vec<usize>)> = BTreeSet::new();
    let mut to_index: Vec<(Arc<IdRel>, Vec<usize>)> = Vec::new();
    for cq in union.cqs() {
        for (i, atom) in cq.atoms().iter().enumerate() {
            let Some(stored) = instance.get_shared(&atom.rel) else {
                continue;
            };
            let sig = atom_signature(&atom.args);
            let mut vars = atom.args.clone();
            vars.sort_unstable();
            vars.dedup();
            let shared = |v: &u32| {
                cq.atoms()
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.args.contains(v))
            };
            let cols: Vec<usize> = (0..vars.len()).filter(|&c| shared(&vars[c])).collect();
            if !cols.is_empty() && keyed.insert((atom.rel.clone(), sig.clone(), cols.clone())) {
                to_index.push((ctx.normalized_rel(&stored, &sig), cols));
            }
        }
    }
    for (rel, cols) in &to_index {
        let t = Instant::now();
        black_box(HashIndex::build(rel, cols));
        sums.index_par_ms += ms_since(t);
        let t = Instant::now();
        black_box(HashIndex::build_seq(rel, cols));
        sums.index_seq_ms += ms_since(t);
        sums.index_rows += rel.len();
    }

    // The full reducer over each member's own join tree.
    for cq in union.cqs() {
        let Some(tree) = join_tree(&cq.hypergraph()) else {
            continue;
        };
        let mut rels: Vec<NodeRel> = tree
            .nodes()
            .iter()
            .map(|node| {
                let atom = &cq.atoms()[node.atom.expect("a plain join tree has atom nodes only")];
                let stored = instance.get_shared(&atom.rel).expect("generated");
                NodeRel::from_atom(atom, &stored, &ctx).expect("arity matches")
            })
            .collect();
        let rows_in: usize = rels.iter().map(|r| r.rel.len()).sum();
        let t = Instant::now();
        full_reduce(&tree, &mut rels);
        acc.add("yannakakis.reduce_ms", ms_since(t));
        acc.add("yannakakis.reduce_rows_in", rows_in as f64);
        let kept: usize = rels.iter().map(|r| r.rel.len()).sum();
        acc.add("yannakakis.reduce_rows_kept", kept as f64);
    }

    let t = Instant::now();
    black_box(side.engine.enumerate_naive(instance).expect("evaluates"));
    sums.naive_ms += ms_since(t);

    // Id-level drains over the prepared state of a request.
    let search = CostedSearch::prepare(union, &SearchConfig::default()).expect("plans");
    let prepared = Prepared::build(&mut Tracer::new(), side, &search);
    let (mut cdy_ns, mut cdy_rows) = (0.0, 0usize);
    let mut member_ids = Vec::new();
    for engine in &prepared.engines {
        let mut iter = OwnedCdyIter::new(Arc::clone(engine));
        let t = Instant::now();
        cdy_rows += drain_ids(&mut iter, None);
        cdy_ns += ms_since(t) * 1e6;
        drain_ids(
            &mut OwnedCdyIter::new(Arc::clone(engine)),
            Some(&mut member_ids),
        );
    }
    sums.cdy_ns += cdy_ns;
    sums.cdy_rows += cdy_rows;
    // The union's own id-level drain where it has one (the Cheater spine);
    // Algorithm 1 emits values only, so its members stand in.
    match prepared.start() {
        Started::Extension(mut cheater) => {
            let t = Instant::now();
            sums.pump_rows += drain_ids(&mut cheater, None);
            sums.pump_ns += ms_since(t) * 1e6;
        }
        Started::Algorithm1(_) => {
            sums.pump_ns += cdy_ns;
            sums.pump_rows += cdy_rows;
        }
    }
    let t = Instant::now();
    sums.value_rows += drop_all(&mut prepared.start());
    sums.value_ns += ms_since(t) * 1e6;

    // Decode on a frozen view: no lock on the way.
    let view = prepared.ctx.freeze();
    let t = Instant::now();
    let decoded = view.decode_rows(union.head_arity(), &member_ids);
    sums.decode_ns += ms_since(t) * 1e6;
    sums.decode_rows += decoded.len();
}

/// `storage.probe_ns`: a fixed run of single-column keys, half of them
/// present, against one index of the dataset.
fn probe_battery(acc: &mut Acc, side: &Side, seed: u64, keys: usize) {
    let union = &side.engine.classification().minimized;
    let atom = &union.cqs()[0].atoms()[0];
    let stored = side.data.instance.get_shared(&atom.rel).expect("generated");
    let ctx = CtxView::new();
    let rel = ctx.normalized_rel(&stored, &atom_signature(&atom.args));
    let index = HashIndex::build(&rel, &[0]);
    let column = rel.col(0);
    let absent = ctx.dict_len() as u32;
    let mut rng = SplitMix(seed ^ 0x70_72_6f_62_65);
    let run: Vec<ValueId> = (0..keys)
        .map(|i| {
            let r = rng.next_u64();
            if i % 2 == 0 {
                column[(r % column.len() as u64) as usize]
            } else {
                ValueId(absent + (r % 1024) as u32)
            }
        })
        .collect();
    let t = Instant::now();
    let matched: usize = index.probe_batch(&run, 1).map(|(_, rows)| rows.len()).sum();
    black_box(matched);
    acc.add("storage.probe_ns", ms_since(t) * 1e6 / keys as f64);
}

/// First-answer time and delay tail at four times the rows, against the
/// values at size.
fn scale_pass(acc: &mut Acc, sides: &[Side], spec: &RunSpec, first_ms: f64) {
    let requests = spec.scale.pass_requests();
    let (mut delays, mut big_delays) = (Vec::new(), Vec::new());
    let mut big_first = 0.0;
    for side in sides {
        delays.extend(delay_pass(requests, side.oracle.len(), || {
            side.engine.enumerate(&side.data.instance).expect("runs")
        }));
        let big = Dataset::generate(side.data.shape, spec.seed, side.data.rows * 4);
        let engine = big.engine();
        let mut firsts: Vec<f64> = (0..requests.div_ceil(2))
            .map(|_| cold_request(&engine, &big.instance).first_ms)
            .collect();
        big_first += median(&mut firsts);
        big_delays.extend(delay_pass(requests.div_ceil(2), 0, || {
            engine.enumerate(&big.instance).expect("runs")
        }));
    }
    // Linear preprocessing reads 4 here; constant delay reads 1 below.
    acc.add("core.preprocess_ratio_4x", big_first / first_ms);
    acc.add("enumerate.delay_ns_p999", delay_stat(&mut delays, 0.999));
    acc.add("enumerate.delay_ns_max", delay_stat(&mut delays, 1.0));
    acc.add(
        "enumerate.delay_p99_ratio_4x",
        delay_stat(&mut big_delays, 0.99) / delay_stat(&mut delays, 0.99),
    );
}

/// Per session and kind, the median latency in milliseconds, summed over
/// the sessions: one request of that kind against each session.
fn sum_of_medians(by_session: &mut [Vec<f64>]) -> f64 {
    by_session.iter_mut().map(|v| median(v)).sum()
}

/// What the served battery found that the workload's own metrics need.
struct ServedOut {
    untraced_ms: f64,
    traced_ms: f64,
    cache_growth: CacheCounts,
}

/// The three cache counters the traced run reports: interned builds, index
/// builds, index hits.
type CacheCounts = [usize; 3];

fn cache_counts(stats: ContextStats) -> CacheCounts {
    [stats.interned_builds, stats.index_builds, stats.index_hits]
}

/// `total += after − before`, counter by counter.
fn add_growth(total: &mut CacheCounts, after: ContextStats, before: ContextStats) {
    let (after, before) = (cache_counts(after), cache_counts(before));
    for i in 0..total.len() {
        total[i] += after[i] - before[i];
    }
}

/// One served request, timed from `submit` to the reply; checked for shape.
fn served_request<'e>(
    gate: &mut Gate,
    tracer: &mut Option<&mut Tracer>,
    handle: &ServeHandle<'_, 'e>,
    session: &Arc<FrozenSession<'e>>,
    kind: Kind,
    total: usize,
) -> f64 {
    if let Some(tracer) = tracer.as_deref_mut() {
        tracer.enter("served_request");
    }
    let t = Instant::now();
    let (ticket, _) = timed(tracer, "serve.submit", || {
        submit(handle, &Target::Pinned(session), kind)
    });
    let (reply, _) = timed(tracer, "serve.wait", || ticket.and_then(|t| t.wait()));
    let latency = ms_since(t);
    if let Some(tracer) = tracer.as_deref_mut() {
        tracer.exit();
    }
    gate.op(
        reply
            .as_ref()
            .is_ok_and(|served| reply_shape_ok(kind, served, Some(total))),
        || format!("served {kind:?} came back wrong"),
    );
    latency
}

/// Freezes a session per dataset and measures it directly on this thread and
/// through a pool: the pool's cost is the difference.
fn served_battery(
    acc: &mut Acc,
    gate: &mut Gate,
    tr: &mut Tracer,
    sides: &[Side],
    requests: usize,
) -> ServedOut {
    let mut sessions = Vec::new();
    for side in sides {
        let t = Instant::now();
        let session = side.freeze();
        acc.add("core.session_freeze_ms", ms_since(t));
        let t = Instant::now();
        black_box(session.build_context().freeze());
        acc.add("storage.freeze_ms", ms_since(t));
        sessions.push(session);
    }
    let before: Vec<_> = sessions.iter().map(|s| s.context().stats()).collect();

    // Directly, no pool: the floor a served request stands on.
    let n = sessions.len();
    let (mut collected, mut budgeted, mut paged) = (
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![Vec::new(); n],
    );
    // Times `f`; what it returns is dropped after the clock stops, as a
    // served reply is.
    fn clocked<R>(f: impl FnOnce() -> R) -> f64 {
        let t = Instant::now();
        let out = f();
        let ms = ms_since(t);
        drop(out);
        ms
    }
    for _ in 0..requests {
        for (s, session) in sessions.iter().enumerate() {
            let start = || session.enumerate().expect("enumerates");
            collected[s].push(clocked(|| start().collect_all()));
            budgeted[s].push(clocked(|| {
                Budgeted::new(start(), QueryBudget::unlimited()).collect_all()
            }));
            paged[s].push(clocked(|| {
                Budgeted::new(start(), Kind::Page.budget()).collect_all()
            }));
        }
    }
    let frozen_drain_ms = sum_of_medians(&mut collected);
    let direct_page_ms = sum_of_medians(&mut paged);
    acc.add("core.frozen_drain_ms", frozen_drain_ms);
    acc.add(
        "enumerate.budget_overhead_frac",
        sum_of_medians(&mut budgeted) / frozen_drain_ms - 1.0,
    );

    // Through the pool: the same schedule untraced, then under spans.
    let from = tr.spans().len();
    let mut pooled = [
        [vec![Vec::new(); n], vec![Vec::new(); n]],
        [vec![Vec::new(); n], vec![Vec::new(); n]],
    ];
    let ((), stats) = serve(serve_config(), |handle| {
        for traced in [false, true] {
            for _ in 0..requests {
                for (s, session) in sessions.iter().enumerate() {
                    for (k, kind) in [Kind::Page, Kind::Drain].into_iter().enumerate() {
                        let mut tracer = traced.then_some(&mut *tr);
                        let total = sides[s].oracle.len();
                        let ms = served_request(gate, &mut tracer, handle, session, kind, total);
                        pooled[usize::from(traced)][k][s].push(ms);
                    }
                }
            }
        }
    });
    let [[page, drain], [traced_page, traced_drain]] = &mut pooled;
    let (page_ms, drain_ms) = (sum_of_medians(page), sum_of_medians(drain));
    acc.add("serve.page_ms_p50", page_ms);
    acc.add("serve.drain_ms_p50", drain_ms);
    acc.add("serve.pool_overhead_ratio", drain_ms / frozen_drain_ms);
    acc.add("serve.page_overhead_us", (page_ms - direct_page_ms) * 1e3);
    let spans = &tr.spans()[from..];
    acc.add(
        "serve.submit_us",
        median(&mut self_ms_per_request(spans, "serve.submit")) * 1e3,
    );
    acc.add("serve.completed", stats.completed as f64);
    acc.add("serve.partial", stats.partial as f64);
    acc.add("serve.shed", stats.shed as f64);
    acc.add("serve.queue_high_water", stats.queue_high_water as f64);
    require_balanced(gate, &stats);

    let mut cache_growth = CacheCounts::default();
    let mut any_overflowed = false;
    for (session, before) in sessions.iter().zip(before) {
        add_growth(&mut cache_growth, session.context().stats(), before);
        any_overflowed |= overflowed(session.context());
    }
    acc.add("storage.overflowed", f64::from(u8::from(any_overflowed)));
    ServedOut {
        untraced_ms: page_ms + drain_ms,
        traced_ms: sum_of_medians(traced_page) + sum_of_medians(traced_drain),
        cache_growth,
    }
}

/// What the churn battery found that the workload's own metrics need.
struct ChurnOut {
    untraced_wall_s: Option<f64>,
    traced_wall_s: f64,
    cache_growth: CacheCounts,
}

/// One churn cycle on the primary dataset under spans (and, for the churn
/// workload itself, one without them first): what ingest, refreeze and
/// rotation cost, and what a cycle leaves behind in the storage layer.
fn churn_battery(
    acc: &mut Acc,
    gate: &mut Gate,
    tr: &mut Tracer,
    side: &Side,
    spec: &RunSpec,
) -> ChurnOut {
    let plan = ChurnPlan::new(
        &side.data,
        cycle_seed(spec.seed, 0),
        spec.scale.churn_rounds(),
    );
    let (engine, instance) = (&side.engine, &side.data.instance);
    let (out, stats) = serve(serve_config(), |handle| {
        let untraced_wall_s = (spec.workload == Workload::ChurnRotate).then(|| {
            let (_, writes) = churn_cycle(gate, handle, engine, instance, &plan, None);
            writes.wall_s
        });
        let (reads, writes) = churn_cycle(gate, handle, engine, instance, &plan, Some(tr));
        verify_checkpoints(gate, engine, &writes, &side.oracle);

        let ingest = |want_insert: bool| -> f64 {
            let mut ms: Vec<f64> = writes
                .ingest_ms
                .iter()
                .filter(|(op, _)| matches!(op, ChurnOp::Insert(_)) == want_insert)
                .map(|(_, ms)| *ms)
                .collect();
            median(&mut ms)
        };
        acc.add("storage.ingest_insert_ms", ingest(true));
        acc.add("storage.ingest_delete_ms", ingest(false));
        acc.add("core.refreeze_ms", median(&mut writes.refreeze_ms.clone()));
        let quarter = (writes.refreeze_ms.len() / 4).max(1);
        let early = median(&mut writes.refreeze_ms[..quarter].to_vec());
        let late = median(&mut writes.refreeze_ms[writes.refreeze_ms.len() - quarter..].to_vec());
        acc.add("core.refreeze_growth", late / early);
        acc.add("core.rotate_ms_p50", median(&mut writes.rotate_ms.clone()));
        acc.add(
            "core.rotate_ms_p95",
            percentile(&mut writes.rotate_ms.clone(), 0.95),
        );
        acc.add("serve.epoch_pinned", reads.pinned as f64);
        acc.add("serve.epoch_upgraded", reads.upgraded as f64);

        let (_, last, last_instance) = writes.checkpoints.last().expect("epoch 0 at least");
        let build = last.build_context();
        let ingested = build.ingest_stats();
        acc.add(
            "storage.ingest_indexes_merged",
            ingested.indexes_merged as f64,
        );
        acc.add(
            "storage.ingest_derived_carried",
            ingested.derived_carried as f64,
        );
        let churned = last_instance.get_shared(plan.rel).expect("churned");
        let churn = build.churn_of(&churned).unwrap_or_default();
        acc.add("storage.segments_final", churn.segments as f64);
        acc.add("storage.tombstone_frac_final", churn.tombstone_fraction);
        let mut cache_growth = CacheCounts::default();
        add_growth(&mut cache_growth, build.stats(), writes.build_stats_before);
        ChurnOut {
            untraced_wall_s,
            traced_wall_s: writes.wall_s,
            cache_growth,
        }
    });
    require_balanced(gate, &stats);
    out
}

/// Layer costs that depend on no dataset.
fn micro_battery(acc: &mut Acc, ops: usize) {
    // The Cheater over a stream in which every answer comes twice in a row
    // (the shape of the repo's E7 bench).
    let ctx = CtxView::new();
    let unique = ops / 2;
    let ids: Vec<ValueId> = (0..unique as i64)
        .flat_map(|i| {
            let row = [ctx.intern(Value::Int(i)), ctx.intern(Value::Int(i * 7))];
            [row, row]
        })
        .flatten()
        .collect();
    let inner = IdVecEnumerator::from_flat(2, ids);
    let mut cheater = Cheater::with_capacity_hint(inner, 2, ctx, unique);
    let t = Instant::now();
    while let Some(row) = cheater.next_ids() {
        black_box(row);
    }
    acc.add(
        "enumerate.cheater_ns_per_inner",
        ms_since(t) * 1e6 / cheater.stats().inner_results.max(1) as f64,
    );

    let queue = BoundedQueue::new(16);
    let t = Instant::now();
    for i in 0..ops {
        black_box(queue.push(i).is_ok());
        black_box(queue.pop());
    }
    acc.add("serve.queue_op_ns", ms_since(t) * 1e6 / ops as f64);

    // A reply crossing threads: deliver here, wake there.
    let trips = (ops / 100).max(10);
    let (to_waiter, slots) = mpsc::channel::<Arc<ReplySlot<Instant>>>();
    let (woke, wakes) = mpsc::channel::<Duration>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for slot in slots {
                let delivered_at = slot.wait();
                if woke.send(delivered_at.elapsed()).is_err() {
                    return;
                }
            }
        });
        let mut us = Vec::with_capacity(trips);
        for _ in 0..trips {
            let slot = Arc::new(ReplySlot::new());
            to_waiter.send(Arc::clone(&slot)).expect("the waiter lives");
            // Let the waiter park on the slot before the reply lands.
            std::thread::yield_now();
            slot.deliver(Instant::now());
            us.push(wakes.recv().expect("the waiter answers").as_secs_f64() * 1e6);
        }
        drop(to_waiter);
        acc.add("serve.reply_roundtrip_us", median(&mut us));
    });
}

/// One pass: every per-layer metric measured once over the workload's
/// datasets.
fn pass(acc: &mut Acc, gate: &mut Gate, tr: &mut Tracer, spec: &RunSpec, sides: &[Side]) {
    let requests = spec.scale.pass_requests();
    let micro_ops = sides[0].data.rows * 10;
    let from = tr.spans().len();
    let (mut first_ms, mut full_ms, mut traced_cold_ms) = (0.0, 0.0, 0.0);
    let mut cold_cache = CacheCounts::default();
    let mut sums = Sums::default();
    for side in sides {
        let cold = cold_pass(acc, gate, tr, side, requests);
        layer_battery(acc, &mut sums, side);
        first_ms += cold.first_ms;
        full_ms += cold.full_ms;
        traced_cold_ms += cold.traced_ms;
        add_growth(&mut cold_cache, cold.cache, ContextStats::default());
    }
    sums.emit(acc, full_ms);
    probe_battery(acc, &sides[0], spec.seed, micro_ops * 3);
    scale_pass(acc, sides, spec, first_ms);
    let served = served_battery(acc, gate, tr, sides, requests);
    let churn = churn_battery(acc, gate, tr, &sides[0], spec);
    micro_battery(acc, micro_ops);

    // The numbers that belong to the workload's own kind of operation.
    let spans = &tr.spans()[from..];
    let (root, untraced, traced, cache) = match spec.workload {
        Workload::ColdFc | Workload::ColdExt => {
            ("cold_request", full_ms, traced_cold_ms, cold_cache)
        }
        Workload::ServeWarm => (
            "served_request",
            served.untraced_ms,
            served.traced_ms,
            served.cache_growth,
        ),
        Workload::ChurnRotate => (
            "churn_round",
            churn.untraced_wall_s.expect("measured for this workload"),
            churn.traced_wall_s,
            churn.cache_growth,
        ),
    };
    acc.add("bench.trace_overhead_frac", traced / untraced - 1.0);
    acc.add(
        "bench.trace_coverage",
        coverage(&requests_rooted(spans, root)),
    );
    for (name, count) in [
        "storage.cache_interned_builds",
        "storage.cache_index_builds",
        "storage.cache_index_hits",
    ]
    .into_iter()
    .zip(cache)
    {
        acc.add(name, count as f64);
    }
    acc.pass += 1;
}

pub fn run(spec: &RunSpec, out_dir: &Path) -> Outcome {
    let sizes = spec.scale.sizes();
    let sides: Vec<Side> = spec
        .workload
        .shapes()
        .iter()
        .map(|&shape| Side::build(shape, spec.seed, sizes))
        .collect();
    let mut acc = Acc::default();
    let mut gate = Gate::default();
    let mut tr = Tracer::new();
    let mut calib = Calibration::default();
    let deadline = Instant::now() + Duration::from_secs_f64(spec.seconds);
    loop {
        calib.sample();
        pass(&mut acc, &mut gate, &mut tr, spec, &sides);
        if Instant::now() >= deadline {
            break;
        }
    }
    calib.sample();
    calib.report();
    println!("passes: {}", acc.pass);

    let mut values = acc.into_values(&mut gate);
    values.set("bench.calib_ms", calib.median_ms());
    values.set("bench.calib_spread", calib.spread());
    let (overhead, covered) = (
        values.get("bench.trace_overhead_frac").unwrap_or(f64::NAN),
        values.get("bench.trace_coverage").unwrap_or(f64::NAN),
    );
    if !(covered >= 0.9 && overhead.abs() <= 0.10) {
        println!(
            "warning: the decomposition does not add up (coverage {covered:.3}, traced against \
             untraced {overhead:+.3}); read the per-layer times as indications only"
        );
    }
    let counts: Vec<(String, f64)> = PER_LAYER
        .iter()
        .filter(|d| d.exact)
        .filter_map(|d| Some((d.name.to_string(), values.get(d.name)?)))
        .collect();
    let path = out_dir.join(format!("trace-{}.jsonl", spec.workload.name()));
    if let Err(e) = write_jsonl(&path, tr.spans(), &counts) {
        gate.require(false, || format!("cannot write {}: {e}", path.display()));
    }
    println!("trace: {} spans in {}", tr.spans().len(), path.display());
    Outcome { values, gate }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::naive_answer_set;
    use crate::e2e::Scale;

    /// A side whose oracle is computed in this process (the test binary is
    /// not the benchmark, so there is no `oracle` child to start).
    fn side(shape: Shape, seed: u64) -> Side {
        let data = Dataset::generate(shape, seed, shape.rows(Scale::Smoke.sizes()));
        let engine = data.engine();
        let oracle = naive_answer_set(&engine, &data.instance);
        Side {
            data,
            engine,
            oracle,
        }
    }

    fn counts_of(workload: Workload, seed: u64) -> Vec<(&'static str, f64)> {
        let spec = RunSpec {
            workload,
            seed,
            seconds: 0.1,
            scale: Scale::Smoke,
        };
        let sides: Vec<Side> = workload.shapes().iter().map(|&s| side(s, seed)).collect();
        let (mut acc, mut gate, mut tr) = (Acc::default(), Gate::default(), Tracer::new());
        pass(&mut acc, &mut gate, &mut tr, &spec, &sides);
        assert!(gate.correct(), "{:?}", gate.messages());
        let values = acc.into_values(&mut gate);
        let missing: Vec<_> = values
            .missing(true)
            .into_iter()
            .filter(|n| !n.starts_with("bench.calib"))
            .collect();
        assert!(missing.is_empty(), "a pass measured no {missing:?}");
        PER_LAYER
            .iter()
            .filter(|d| d.exact)
            .map(|d| (d.name, values.get(d.name).expect("measured")))
            .collect()
    }

    #[test]
    fn one_seed_gives_the_same_counts_twice_and_another_seed_others() {
        for workload in [Workload::ColdExt, Workload::ChurnRotate] {
            let a = counts_of(workload, 21);
            assert_eq!(a, counts_of(workload, 21));
            assert_ne!(a, counts_of(workload, 22));
        }
    }
}
