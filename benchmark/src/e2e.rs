//! The untraced runs: what a caller of the system sees on each workload.

use crate::calib::Calibration;
use crate::data::{oracle, AnswerSet, ChurnOp, ChurnPlan, Dataset, Shape, Sizes};
use crate::metrics::Values;
use crate::ops::{
    check_full_set, cold_request, delay_percentile, ms_since, peak_rss_mb, record_delays,
    reply_shape_ok, stream_answer_set, submit, timed, Gate, Kind, Samples, Target, PAGE_ANSWERS,
};
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use ucq_core::{FrozenSession, UcqEngine};
use ucq_enumerate::Enumerator;
use ucq_serve::{serve, EpochCell, ServeConfig, ServeHandle, ServeStats};
use ucq_storage::{ContextStats, CtxView, Instance};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdFc,
    ColdExt,
    ServeWarm,
    ChurnRotate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdFc,
        Workload::ColdExt,
        Workload::ServeWarm,
        Workload::ChurnRotate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFc => "cold_fc",
            Workload::ColdExt => "cold_ext",
            Workload::ServeWarm => "serve_warm",
            Workload::ChurnRotate => "churn_rotate",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The datasets the workload runs on, the first being its primary.
    pub fn shapes(self) -> &'static [Shape] {
        match self {
            Workload::ColdFc | Workload::ChurnRotate => &[Shape::FreeConnex],
            Workload::ColdExt => &[Shape::Extension],
            Workload::ServeWarm => &[Shape::FreeConnex, Shape::Extension],
        }
    }
}

/// How much work a run does besides its timed window: full size for every
/// reported number, a fraction of it under `smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Full => Sizes::FULL,
            Scale::Smoke => Sizes::SMOKE,
        }
    }

    /// Requests in each pass of a traced run.
    pub fn pass_requests(self) -> usize {
        match self {
            Scale::Full => 20,
            Scale::Smoke => 3,
        }
    }

    /// Requests timed answer by answer at the end of each round.
    pub fn delays_per_round(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Smoke => 1,
        }
    }

    /// Rounds in one churn cycle, each starting from a fresh session.
    pub fn churn_rounds(self) -> usize {
        match self {
            Scale::Full => 64,
            Scale::Smoke => 8,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

pub struct Outcome {
    pub values: Values,
    pub gate: Gate,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Rounds the timed window is cut into, the calibration kernel between them.
pub const ROUNDS: usize = 9;
/// Share of `--seconds` given to the rounds' operations; the requests timed
/// answer by answer and the calibration kernel take the rest.
const MAIN_SHARE: f64 = 0.85;

/// Pool threads of a served workload: one core is left to the client.
pub fn pool_workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.min(4).saturating_sub(1).max(1)
}

pub fn serve_config() -> ServeConfig {
    ServeConfig::new(pool_workers(), 64).expect("positive pool shape")
}

/// The times of one untraced run. Every interval is measured between two
/// runs of the calibration kernel and reported at reference speed (see
/// [`Calibration::speed`]).
struct Timings {
    calib: Calibration,
    setup_s: Vec<f64>,
    first: Samples,
    full: Samples,
    /// Answers per second, one rate per round.
    rates: Vec<f64>,
    delays_per_round: usize,
    /// The p99 gap, in nanoseconds, of each request timed answer by answer.
    delay_p99: Samples,
    /// The class (session) and answer count of each such request.
    delay_answers: Vec<(usize, usize)>,
}

impl Timings {
    fn new(spec: &RunSpec) -> Timings {
        Timings {
            calib: Calibration::default(),
            setup_s: Vec::new(),
            first: Samples::default(),
            full: Samples::default(),
            rates: Vec::new(),
            delays_per_round: spec.scale.delays_per_round(),
            delay_p99: Samples::default(),
            delay_answers: Vec::new(),
        }
    }

    /// Times one set-up.
    fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.calib.sample();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let after = self.calib.sample();
        self.setup_s.push(secs * Calibration::speed(before, after));
        out
    }

    /// Runs one round between two runs of the kernel. `ops` pushes latencies
    /// and returns the answers it delivered, with whatever `enumerate` needs
    /// to start the enumerations that close the round, each timed answer by
    /// answer; `enumerate` also says which class (session) its request is of.
    fn round<S, E: Enumerator>(
        &mut self,
        ops: impl FnOnce(&mut Samples, &mut Samples) -> (usize, S),
        mut enumerate: impl FnMut(&S, usize) -> (usize, E),
    ) {
        let before = self.calib.sample();
        for samples in [&mut self.first, &mut self.full, &mut self.delay_p99] {
            samples.start_round();
        }
        let t = Instant::now();
        let (delivered, state) = ops(&mut self.first, &mut self.full);
        let secs = t.elapsed().as_secs_f64();
        // Room for as many gaps as the last such request had: the vector
        // must not grow while the gaps are being timed.
        let room = self.delay_answers.last().map_or(0, |(_, answers)| *answers);
        for i in 0..self.delays_per_round {
            let (class, answers) = enumerate(&state, self.delay_answers.len() + i);
            let (answers, mut gaps) = record_delays(answers, room);
            self.delay_p99
                .push(class, delay_percentile(&mut gaps, 0.99));
            self.delay_answers.push((class, answers));
        }
        let speed = Calibration::speed(before, self.calib.sample());
        for samples in [&mut self.first, &mut self.full, &mut self.delay_p99] {
            samples.close_round(speed);
        }
        self.rates.push(delivered as f64 / (secs * speed));
    }

    /// Runs the timed window as [`ROUNDS`] rounds of equal length. `ops`
    /// gets the instant its round's operations end and does at least one.
    fn rounds<E: Enumerator>(
        &mut self,
        seconds: f64,
        mut ops: impl FnMut(Instant, &mut Samples, &mut Samples) -> usize,
        mut enumerate: impl FnMut(usize) -> (usize, E),
    ) {
        let slice = Duration::from_secs_f64(seconds * MAIN_SHARE / ROUNDS as f64);
        for _ in 0..ROUNDS {
            self.round(
                |first, full| (ops(Instant::now() + slice, first, full), ()),
                |(), i| enumerate(i),
            );
        }
    }

    /// Prints the log lines and sets every end-to-end metric but the peak
    /// resident size, which the caller reads where its window ends.
    fn finish(mut self, values: &mut Values) {
        self.calib.report();
        self.first.report("first_ms");
        self.full.report("full_ms");
        println!("set-ups at reference speed: {:?} s", self.setup_s);
        println!(
            "{} requests timed answer by answer",
            self.delay_answers.len()
        );
        values.set("setup_s", median(&mut self.setup_s));
        values.set("first_ms_p50", self.first.p50());
        values.set("first_ms_p90", self.first.p90());
        values.set("full_ms_p50", self.full.p50());
        values.set("full_ms_p90", self.full.p90());
        values.set("delay_ns_p99", self.delay_p99.p50());
        values.set("answers_per_s", median(&mut self.rates));
    }
}

/// A dataset with its engine and its oracle answer set: one set-up of a
/// cold workload, and the build half of one of a served workload.
pub struct Side {
    pub data: Dataset,
    pub engine: UcqEngine,
    pub oracle: AnswerSet,
}

impl Side {
    pub fn build(shape: Shape, seed: u64, sizes: Sizes) -> Side {
        let rows = shape.rows(sizes);
        let data = Dataset::generate(shape, seed, rows);
        let engine = data.engine();
        let oracle = oracle(shape, seed, rows);
        Side {
            data,
            engine,
            oracle,
        }
    }

    pub fn freeze(&self) -> Arc<FrozenSession<'_>> {
        Arc::new(
            self.engine
                .session(&self.data.instance)
                .freeze()
                .expect("the workload's query freezes"),
        )
    }
}

/// Starts and stops a pool: the part of a served set-up that is not a
/// session.
pub fn pool_start() {
    serve(serve_config(), |_| ());
}

pub fn run(spec: &RunSpec) -> Outcome {
    match spec.workload {
        Workload::ColdFc => run_cold(spec, Shape::FreeConnex),
        Workload::ColdExt => run_cold(spec, Shape::Extension),
        Workload::ServeWarm => run_serve_warm(spec),
        Workload::ChurnRotate => run_churn(spec),
    }
}

fn run_cold(spec: &RunSpec, shape: Shape) -> Outcome {
    let mut timings = Timings::new(spec);
    let mut side = None;
    for _ in 0..SETUPS {
        drop(side.take());
        side = Some(timings.setup(|| Side::build(shape, spec.seed, spec.scale.sizes())));
    }
    let side = side.expect("SETUPS is positive");
    let (engine, instance) = (&side.engine, &side.data.instance);

    let mut gate = Gate::default();
    let answers = engine.enumerate(instance).expect("evaluates");
    gate.require(answers.strategy() == shape.strategy(), || {
        format!("ran {:?}, not the intended arm", answers.strategy())
    });
    check_full_set(
        &mut gate,
        "first cold request",
        &stream_answer_set(answers),
        &side.oracle,
    );

    let cold_ops = |deadline: Instant, first: &mut Samples, full: &mut Samples| {
        let mut delivered = 0;
        loop {
            let sample = cold_request(engine, instance);
            gate.op(sample.answers == side.oracle.len(), || {
                format!(
                    "cold request gave {} answers, oracle {}",
                    sample.answers,
                    side.oracle.len()
                )
            });
            first.push(0, sample.first_ms);
            full.push(0, sample.full_ms);
            delivered += sample.answers;
            if Instant::now() >= deadline {
                return delivered;
            }
        }
    };
    timings.rounds(spec.seconds, cold_ops, |_| {
        (0, engine.enumerate(instance).expect("evaluates"))
    });
    let mut values = Values::default();
    values.set("peak_rss_mb", peak_rss_mb());
    for (_, answers) in &timings.delay_answers {
        gate.op(*answers == side.oracle.len(), || {
            format!("a request timed answer by answer gave {answers} answers")
        });
    }
    timings.finish(&mut values);
    Outcome { values, gate }
}

/// The served schedule: three pages then a drain, sessions alternating so
/// that both kinds reach every session.
pub fn served_schedule(i: usize, sessions: usize) -> (Kind, usize) {
    let kind = if i % 4 == 3 { Kind::Drain } else { Kind::Page };
    (kind, (i + i / 4) % sessions)
}

/// The first page and the first drain on a session, checked answer by
/// answer.
fn verify_served<'e>(
    gate: &mut Gate,
    handle: &ServeHandle<'_, 'e>,
    target: &Target<'_, 'e>,
    oracle: &AnswerSet,
) {
    for kind in [Kind::Page, Kind::Drain] {
        let served = submit(handle, target, kind)
            .and_then(|ticket| ticket.wait())
            .expect("the verification request is served");
        gate.require(reply_shape_ok(kind, &served, Some(oracle.len())), || {
            format!("first {kind:?} has the wrong shape")
        });
        let got = AnswerSet::from_fingerprints(
            served
                .answers()
                .iter()
                .map(crate::data::fingerprint)
                .collect(),
        );
        match kind {
            Kind::Drain => check_full_set(gate, "first drain", &got, oracle),
            Kind::Page => {
                gate.require(!got.has_duplicates(), || {
                    "first page repeats an answer".into()
                });
                let strays = served
                    .answers()
                    .iter()
                    .filter(|t| !oracle.contains(crate::data::fingerprint(t)))
                    .count();
                gate.require(strays == 0, || {
                    format!("first page holds {strays} answers outside the oracle")
                });
            }
        }
    }
}

/// The frozen context of a session, which must never have interned a value
/// after its freeze.
pub fn overflowed(ctx: &CtxView) -> bool {
    match ctx {
        CtxView::Frozen(frozen) => frozen.has_overflowed(),
        CtxView::Build(_) => true,
    }
}

/// Every submission accounted once, and none lost on the way.
pub fn require_balanced(gate: &mut Gate, stats: &ServeStats) {
    gate.require(stats.is_balanced(), || {
        format!("the pool's ledger does not balance: {stats:?}")
    });
    gate.require(
        stats.shed + stats.panicked + stats.eval_errors + stats.drained == 0,
        || format!("the pool lost requests: {stats:?}"),
    );
}

fn run_serve_warm(spec: &RunSpec) -> Outcome {
    let mut timings = Timings::new(spec);
    for rep in 0..SETUPS {
        let t = Instant::now();
        let before = timings.calib.sample();
        let sides: Vec<Side> = Workload::ServeWarm
            .shapes()
            .iter()
            .map(|&shape| Side::build(shape, spec.seed, spec.scale.sizes()))
            .collect();
        let sessions: Vec<_> = sides.iter().map(Side::freeze).collect();
        pool_start();
        let secs = t.elapsed().as_secs_f64();
        // Not `Timings::setup`: the sessions borrow the sides, so the last
        // set-up's products cannot leave this scope.
        let speed = Calibration::speed(before, timings.calib.sample());
        timings.setup_s.push(secs * speed);
        if rep + 1 == SETUPS {
            return measure_serve_warm(spec, &sides, &sessions, timings);
        }
    }
    unreachable!("SETUPS is positive")
}

fn measure_serve_warm(
    spec: &RunSpec,
    sides: &[Side],
    sessions: &[Arc<FrozenSession<'_>>],
    mut timings: Timings,
) -> Outcome {
    let workers = pool_workers();
    let mut gate = Gate::default();
    let mut values = Values::default();

    let ((), stats) = serve(serve_config(), |handle| {
        for (side, session) in sides.iter().zip(sessions) {
            verify_served(&mut gate, handle, &Target::Pinned(session), &side.oracle);
        }
        // From here on the storage build layers must do no work at all.
        let before: Vec<_> = sessions.iter().map(|s| s.context().stats()).collect();
        let mut next = 0usize;
        let served_ops = |deadline: Instant, first: &mut Samples, full: &mut Samples| {
            let mut delivered = 0;
            let round_start = next;
            let mut in_flight = VecDeque::with_capacity(workers);
            loop {
                // A closed loop: exactly `workers` requests in flight.
                while in_flight.len() < workers
                    && (next == round_start || Instant::now() < deadline)
                {
                    let (kind, s) = served_schedule(next, sessions.len());
                    next += 1;
                    let submitted = Instant::now();
                    match submit(handle, &Target::Pinned(&sessions[s]), kind) {
                        Ok(ticket) => in_flight.push_back((kind, s, submitted, ticket)),
                        Err(e) => gate.op(false, || format!("{kind:?} was refused: {e}")),
                    }
                }
                let Some((kind, s, submitted, ticket)) = in_flight.pop_front() else {
                    return delivered;
                };
                let reply = ticket.wait();
                let latency = ms_since(submitted);
                match reply {
                    Ok(served) => {
                        let total = sides[s].oracle.len();
                        gate.op(reply_shape_ok(kind, &served, Some(total)), || {
                            format!("{kind:?} returned {} answers", served.answers().len())
                        });
                        delivered += served.answers().len();
                        match kind {
                            Kind::Page => first.push(s, latency),
                            Kind::Drain => full.push(s, latency),
                        }
                    }
                    Err(e) => gate.op(false, || format!("{kind:?} failed: {e}")),
                }
            }
        };
        // Delays as a caller enumerating a frozen session itself sees them.
        timings.rounds(spec.seconds, served_ops, |i| {
            let s = i % sessions.len();
            (s, sessions[s].enumerate().expect("enumerates"))
        });
        values.set("peak_rss_mb", peak_rss_mb());
        for (session, before) in sessions.iter().zip(before) {
            let after = session.context().stats();
            gate.require(after == before, || {
                format!("a warm session built something: {before:?} -> {after:?}")
            });
            gate.require(!overflowed(session.context()), || {
                "a warm session interned past its freeze".into()
            });
        }
    });
    require_balanced(&mut gate, &stats);
    for (s, answers) in &timings.delay_answers {
        gate.op(*answers == sides[*s].oracle.len(), || {
            format!("a drain timed answer by answer gave {answers} answers")
        });
    }
    println!("pool: {workers} worker(s), {stats:?}");
    timings.finish(&mut values);
    Outcome { values, gate }
}

/// What the reader of one churn cycle saw.
#[derive(Default)]
pub struct CycleReads {
    pub page_ms: Vec<f64>,
    pub drain_ms: Vec<f64>,
    pub delivered: usize,
    /// Drains served on the epoch current when they were submitted.
    pub pinned: usize,
    /// Drains served on the epoch installed while they waited.
    pub upgraded: usize,
}

/// What the writer of one churn cycle did.
pub struct CycleWrites<'e> {
    pub rotate_ms: Vec<f64>,
    pub ingest_ms: Vec<(ChurnOp, f64)>,
    pub refreeze_ms: Vec<f64>,
    /// `(epoch, its session, its instance)` at epochs 0, every 32nd, last.
    pub checkpoints: Vec<(usize, Arc<FrozenSession<'e>>, Instance)>,
    /// Cache counters of the write-side context before the first round.
    pub build_stats_before: ContextStats,
    pub wall_s: f64,
}

/// One churn cycle: a reader thread keeps two pages and a drain in flight
/// each round while this thread ingests a delta, refreezes and installs the
/// next epoch. The two meet at a barrier before and after every round. With
/// a tracer, each round of the writer is recorded as a `churn_round` span.
pub fn churn_cycle<'e>(
    gate: &mut Gate,
    handle: &ServeHandle<'_, 'e>,
    engine: &'e UcqEngine,
    instance: &Instance,
    plan: &ChurnPlan,
    mut tracer: Option<&mut Tracer>,
) -> (CycleReads, CycleWrites<'e>) {
    let base = Arc::new(
        engine
            .session(instance)
            .freeze()
            .expect("the workload's query freezes"),
    );
    let cell = Arc::new(EpochCell::from_arc(Arc::clone(&base)));
    let ops = plan.ops();
    let live: Vec<Vec<usize>> = (0..=ops.len()).map(|e| plan.live_after(e)).collect();
    let barrier = Barrier::new(2);
    let mut writes = CycleWrites {
        rotate_ms: Vec::with_capacity(ops.len()),
        ingest_ms: Vec::with_capacity(ops.len()),
        refreeze_ms: Vec::with_capacity(ops.len()),
        build_stats_before: base.build_context().stats(),
        checkpoints: vec![(0, base, instance.clone())],
        wall_s: 0.0,
    };

    let (reads, read_gate) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = CycleReads::default();
            let mut gate = Gate::default();
            for epoch in 0..ops.len() {
                barrier.wait();
                let target = Target::Cell(&cell);
                let tickets: Vec<_> = [Kind::Page, Kind::Page, Kind::Drain]
                    .into_iter()
                    .map(|kind| (kind, Instant::now(), submit(handle, &target, kind)))
                    .collect();
                let replies: Vec<_> = tickets
                    .into_iter()
                    .map(|(kind, submitted, ticket)| {
                        let reply = ticket.and_then(|t| t.wait());
                        (kind, ms_since(submitted), reply)
                    })
                    .collect();
                for (kind, latency, reply) in replies {
                    let served = match reply {
                        Ok(served) => served,
                        Err(e) => {
                            gate.op(false, || format!("{kind:?} failed under churn: {e}"));
                            continue;
                        }
                    };
                    reads.delivered += served.answers().len();
                    match kind {
                        Kind::Page => {
                            reads.page_ms.push(latency);
                            gate.op(reply_shape_ok(kind, &served, None), || {
                                format!("page returned {} answers", served.answers().len())
                            });
                        }
                        Kind::Drain => {
                            reads.drain_ms.push(latency);
                            // The deltas visible in the answers name the
                            // epoch that served them.
                            let mut seen: Vec<usize> = served
                                .answers()
                                .iter()
                                .filter_map(|t| plan.delta_of(t))
                                .collect();
                            seen.sort_unstable();
                            seen.dedup();
                            let pinned = seen == live[epoch];
                            let upgraded = !pinned && seen == live[epoch + 1];
                            reads.pinned += usize::from(pinned);
                            reads.upgraded += usize::from(upgraded);
                            gate.op(
                                reply_shape_ok(kind, &served, None) && (pinned || upgraded),
                                || format!("drain at epoch {epoch} saw deltas {seen:?}"),
                            );
                        }
                    }
                }
                barrier.wait();
            }
            (reads, gate)
        });

        let mut current = instance.clone();
        let t0 = Instant::now();
        for (round, op) in ops.iter().enumerate() {
            barrier.wait();
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.enter("churn_round");
            }
            let t = Instant::now();
            let session = cell.load();
            let a = current
                .get_shared(plan.rel)
                .expect("the dataset has the churned relation");
            let (next_rel, ingest_ms) = timed(&mut tracer, "storage.ingest", || match *op {
                ChurnOp::Insert(d) => session.build_context().insert_rows(&a, &plan.deltas[d]),
                ChurnOp::Delete(d) => session.build_context().delete_rows(&a, &plan.deltas[d]),
            });
            writes.ingest_ms.push((*op, ingest_ms));
            let next_instance = current.with_relation_shared(plan.rel, next_rel);
            let (next, refreeze_ms) = timed(&mut tracer, "core.refreeze", || {
                Arc::new(
                    session
                        .refreeze(&next_instance)
                        .expect("the next epoch refreezes"),
                )
            });
            writes.refreeze_ms.push(refreeze_ms);
            timed(&mut tracer, "storage.install", || {
                cell.install(Arc::clone(&next))
            });
            writes.rotate_ms.push(ms_since(t));
            current = next_instance;
            let epoch = round + 1;
            if epoch % 32 == 0 || epoch == ops.len() {
                writes.checkpoints.push((epoch, next, current.clone()));
            }
            timed(&mut tracer, "serve.reads_in_flight", || barrier.wait());
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.exit();
            }
        }
        writes.wall_s = t0.elapsed().as_secs_f64();
        reader.join().expect("the reader thread finishes")
    });
    gate.absorb(read_gate);
    (reads, writes)
}

/// Checks each checkpointed epoch of a cycle against a fresh one-shot
/// evaluation of its instance, and epoch 0 against the naive oracle too.
pub fn verify_checkpoints(
    gate: &mut Gate,
    engine: &UcqEngine,
    writes: &CycleWrites<'_>,
    oracle: &AnswerSet,
) {
    for (epoch, session, instance) in &writes.checkpoints {
        let served = stream_answer_set(session.enumerate().expect("enumerates"));
        let fresh = stream_answer_set(engine.enumerate(instance).expect("evaluates"));
        check_full_set(gate, &format!("epoch {epoch}"), &served, &fresh);
        if *epoch == 0 {
            check_full_set(gate, "epoch 0 against the naive oracle", &served, oracle);
        }
    }
}

/// Seed of the deltas of churn cycle `cycle`.
pub fn cycle_seed(seed: u64, cycle: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ cycle as u64
}

fn run_churn(spec: &RunSpec) -> Outcome {
    let mut timings = Timings::new(spec);
    let mut side = None;
    for _ in 0..SETUPS {
        drop(side.take());
        side = Some(timings.setup(|| {
            let built = Side::build(Shape::FreeConnex, spec.seed, spec.scale.sizes());
            drop(built.freeze());
            pool_start();
            built
        }));
    }
    let side = side.expect("SETUPS is positive");
    let (engine, instance) = (&side.engine, &side.data.instance);
    // A page must be a strict prefix here: under churn no answer count is
    // known, so a page is checked for holding exactly a page.
    assert!(
        side.oracle.len() > PAGE_ANSWERS,
        "the churn dataset is too small"
    );

    let mut gate = Gate::default();
    let mut rotate_ms = Vec::new();
    let mut values = Values::default();
    let (mut pinned, mut upgraded) = (0, 0);

    let ((), stats) = serve(serve_config(), |handle| {
        let deadline = Instant::now() + Duration::from_secs_f64(spec.seconds * MAIN_SHARE);
        let mut cycle = 0;
        // A cycle is this workload's round. Every cycle starts from a fresh
        // session, so segments, tombstones and the dictionary grow the same
        // in each and a run's length does not change what a round costs.
        while cycle == 0 || Instant::now() < deadline {
            let plan = ChurnPlan::new(
                &side.data,
                cycle_seed(spec.seed, cycle),
                spec.scale.churn_rounds(),
            );
            let mut checkpoints = None;
            timings.round(
                |first, full| {
                    let (reads, writes) =
                        churn_cycle(&mut gate, handle, engine, instance, &plan, None);
                    // The second page of a round waits for the first: two
                    // classes, each with its own statistics.
                    for (i, ms) in reads.page_ms.iter().enumerate() {
                        first.push(i % 2, *ms);
                    }
                    reads.drain_ms.iter().for_each(|&ms| full.push(0, ms));
                    pinned += reads.pinned;
                    upgraded += reads.upgraded;
                    rotate_ms.extend_from_slice(&writes.rotate_ms);
                    let (_, last, _) = writes.checkpoints.last().expect("epoch 0 at least");
                    let last = Arc::clone(last);
                    checkpoints = Some(writes);
                    (reads.delivered, last)
                },
                // Delays on the cycle's last epoch: the segments and
                // tombstones of a whole cycle lie under these probes.
                |last, _| (0, last.enumerate().expect("enumerates")),
            );
            if cycle == 0 {
                // Read before the checks below run their own one-shot
                // evaluations. Cycles repeat the same state, so the first
                // one's peak is the workload's.
                values.set("peak_rss_mb", peak_rss_mb());
            }
            let writes = checkpoints.expect("the round ran");
            verify_checkpoints(&mut gate, engine, &writes, &side.oracle);
            cycle += 1;
        }
    });
    require_balanced(&mut gate, &stats);
    for (_, answers) in &timings.delay_answers {
        gate.op(*answers > 0, || {
            "a drain timed answer by answer was empty".into()
        });
    }
    println!(
        "rotate_ms as measured (per-layer: core.rotate_ms_*): p50 {:.4}, p95 {:.4} over {} rounds",
        median(&mut rotate_ms.clone()),
        crate::stats::percentile(&mut rotate_ms, 0.95),
        rotate_ms.len()
    );
    println!(
        "pool: {} worker(s), {stats:?}; drains pinned {pinned}, upgraded {upgraded}",
        pool_workers()
    );
    timings.finish(&mut values);
    Outcome { values, gate }
}
