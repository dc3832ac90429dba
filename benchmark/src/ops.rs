//! The operations a caller performs, timed the way the caller feels them,
//! and the bookkeeping shared by the untraced and the traced runs.

use crate::data::{fingerprint, AnswerSet};
use crate::stats::{median, percentile, rank, samples_beyond};
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use ucq_core::{FrozenSession, RequestError, Served, UcqEngine};
use ucq_enumerate::{Enumerator, QueryBudget, Truncation};
use ucq_serve::{EpochCell, Request, ServeHandle, Ticket};
use ucq_storage::Instance;

/// Answers in an interactive page: the first two enumeration blocks.
pub const PAGE_ANSWERS: usize = 1024;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and wall time in milliseconds; with a
/// tracer the interval is also recorded as a span.
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let out = match tracer {
        Some(tracer) => tracer.leaf(name, f),
        None => f(),
    };
    (out, ms_since(t))
}

/// Counts operations and collects what went wrong. A run is correct when
/// no operation failed and no requirement was missed.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    requirements_missed: u64,
    messages: Vec<String>,
}

impl Gate {
    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.messages.len() < 20 {
            self.messages.push(what());
        }
    }

    /// One attempted operation; `ok` says whether its output was right.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what);
        }
    }

    /// A condition on the run that is not itself an operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.requirements_missed += 1;
            self.note(what);
        }
    }

    /// Folds in the checks another thread made.
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.requirements_missed += other.requirements_missed;
        for message in other.messages {
            self.note(|| message);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.requirements_missed == 0
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// The tail percentile of a round. A round holds forty to sixty samples of
/// the slowest kind of request, which leaves a p90 a handful of samples
/// beyond it in every round and some forty over a run; a p95 had half that,
/// and spread half again as wide from run to run.
const TAIL: f64 = 0.90;

/// One round's latency samples, by class (the session a request went to;
/// workloads with one kind of target use class 0).
#[derive(Clone, Debug, Default)]
struct Round {
    by_class: Vec<Vec<f64>>,
    /// Reference speed over measured speed while the round ran (see
    /// `calib`); the round's statistics are stated at reference speed.
    speed: f64,
}

impl Round {
    /// Each non-empty class with its median.
    fn classes(&self) -> Vec<(&Vec<f64>, f64)> {
        self.by_class
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| (c, median(&mut c.clone())))
            .collect()
    }

    /// Mean of the class medians: classes with unlike latencies are each
    /// weighed once, where a median over their mix would jump from one to
    /// the other.
    fn mean_median(classes: &[(&Vec<f64>, f64)]) -> f64 {
        classes.iter().map(|(_, m)| m).sum::<f64>() / classes.len() as f64
    }

    fn p50(&self) -> f64 {
        Round::mean_median(&self.classes())
    }

    /// The nearest-rank p90 of the latencies taken relative to their class's
    /// median, scaled back by [`Round::p50`]. With one class this is the
    /// plain p90; with several, every sample supports the one tail.
    fn p90(&self) -> f64 {
        let classes = self.classes();
        let mut relative: Vec<f64> = classes
            .iter()
            .flat_map(|(c, typical)| c.iter().map(move |v| v / typical))
            .collect();
        percentile(&mut relative, TAIL) * Round::mean_median(&classes)
    }

    fn len(&self) -> usize {
        self.by_class.iter().map(Vec::len).sum()
    }
}

/// Latency samples kept by round.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    rounds: Vec<Round>,
}

impl Samples {
    pub fn start_round(&mut self) {
        self.rounds.push(Round {
            by_class: Vec::new(),
            speed: 1.0,
        });
    }

    pub fn push(&mut self, class: usize, v: f64) {
        let round = self.rounds.last_mut().expect("start_round comes first");
        if round.by_class.len() <= class {
            round.by_class.resize(class + 1, Vec::new());
        }
        round.by_class[class].push(v);
    }

    /// Sets the speed factor of the round in progress.
    pub fn close_round(&mut self, speed: f64) {
        self.rounds
            .last_mut()
            .expect("start_round comes first")
            .speed = speed;
    }

    pub fn count(&self) -> usize {
        self.rounds.iter().map(Round::len).sum()
    }

    /// Median over rounds of `stat` of each round. What the program causes
    /// recurs in every round and stays; a burst from the machine hits a few
    /// rounds and drops out. `at_reference_speed` applies each round's
    /// speed factor first.
    fn over_rounds(&self, stat: impl Fn(&Round) -> f64, at_reference_speed: bool) -> f64 {
        let mut per_round: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.len() > 0)
            .map(|r| stat(r) * if at_reference_speed { r.speed } else { 1.0 })
            .collect();
        median(&mut per_round)
    }

    pub fn p50(&self) -> f64 {
        self.over_rounds(Round::p50, true)
    }

    pub fn p90(&self) -> f64 {
        self.over_rounds(Round::p90, true)
    }

    /// One line for the log: the statistics as reported and as measured, the
    /// sample count, and how many samples lie beyond the rounds' p90 ranks.
    pub fn report(&self, name: &str) {
        let beyond: usize = self
            .rounds
            .iter()
            .map(|r| samples_beyond(r.len(), TAIL))
            .sum();
        println!(
            "{name}: p50 {:.4} ms, p90 {:.4} ms at reference speed (as measured {:.4}, {:.4}); \
             {} samples in {} rounds, {beyond} beyond the p90{}",
            self.p50(),
            self.p90(),
            self.over_rounds(Round::p50, false),
            self.over_rounds(Round::p90, false),
            self.count(),
            self.rounds.len(),
            if beyond < 10 {
                " (fewer than ten: the tail is weakly supported)"
            } else {
                ""
            }
        );
    }
}

/// One cold request: `engine.enumerate` with a private context, answers
/// dropped as pulled.
pub struct ColdSample {
    pub first_ms: f64,
    pub full_ms: f64,
    pub answers: usize,
}

pub fn cold_request(engine: &UcqEngine, instance: &Instance) -> ColdSample {
    let t0 = Instant::now();
    let mut answers = engine
        .enumerate(instance)
        .expect("the workload's query evaluates");
    let first = answers.next();
    let first_ms = ms_since(t0);
    let mut n = usize::from(first.is_some());
    drop(first);
    while let Some(t) = answers.next() {
        black_box(&t);
        n += 1;
    }
    let full_ms = ms_since(t0);
    ColdSample {
        first_ms,
        full_ms,
        answers: n,
    }
}

/// Drains `answers` into fingerprints, holding no answer.
pub fn stream_answer_set(mut answers: impl Enumerator) -> AnswerSet {
    let mut fps = Vec::new();
    while let Some(t) = answers.next() {
        fps.push(fingerprint(&t));
    }
    AnswerSet::from_fingerprints(fps)
}

/// Checks a streamed answer set against the oracle: same set, no answer
/// twice.
pub fn check_full_set(gate: &mut Gate, what: &str, got: &AnswerSet, oracle: &AnswerSet) {
    gate.require(!got.has_duplicates(), || {
        format!("{what}: an answer came twice")
    });
    gate.require(got == oracle, || {
        format!(
            "{what}: {} answers differ from the oracle's {}",
            got.len(),
            oracle.len()
        )
    });
}

/// Gaps in nanoseconds between consecutive `next()` returns after the first
/// answer of one request. Returns the answers seen and the gaps.
pub fn record_delays(mut answers: impl Enumerator, expected: usize) -> (usize, Vec<u32>) {
    let mut gaps = Vec::with_capacity(expected);
    let Some(first) = answers.next() else {
        return (0, gaps);
    };
    drop(first);
    let mut n = 1;
    let mut prev = Instant::now();
    while let Some(t) = answers.next() {
        let now = Instant::now();
        gaps.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
        prev = now;
        black_box(&t);
        n += 1;
    }
    (n, gaps)
}

/// Nearest-rank percentile `p` of one request's gaps, in nanoseconds.
pub fn delay_percentile(gaps: &mut [u32], p: f64) -> f64 {
    gaps.sort_unstable();
    if gaps.is_empty() {
        return f64::NAN;
    }
    f64::from(gaps[rank(gaps.len(), p) - 1])
}

/// A delay pass: `requests` enumerations timed answer by answer. Returns,
/// per request, the answers seen and its gaps.
pub fn delay_pass<E: Enumerator>(
    requests: usize,
    expected: usize,
    mut start: impl FnMut() -> E,
) -> Vec<(usize, Vec<u32>)> {
    (0..requests)
        .map(|_| record_delays(start(), expected))
        .collect()
}

/// Median over the requests of a delay pass of each request's percentile
/// `p`: one disturbed request does not set the tail.
pub fn delay_stat(pass: &mut [(usize, Vec<u32>)], p: f64) -> f64 {
    let mut per_request: Vec<f64> = pass
        .iter_mut()
        .map(|(_, gaps)| delay_percentile(gaps, p))
        .collect();
    median(&mut per_request)
}

/// The process's peak resident size so far: `VmHWM` of `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let kb = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    kb().map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The two kinds of served request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// At most [`PAGE_ANSWERS`] answers.
    Page,
    /// The full answer set.
    Drain,
}

impl Kind {
    pub fn budget(self) -> QueryBudget {
        match self {
            Kind::Page => QueryBudget::unlimited().with_max_answers(PAGE_ANSWERS),
            Kind::Drain => QueryBudget::unlimited(),
        }
    }
}

/// Where a served request finds its session.
pub enum Target<'a, 'e> {
    Pinned(&'a Arc<FrozenSession<'e>>),
    Cell(&'a Arc<EpochCell<FrozenSession<'e>>>),
}

pub fn submit<'e>(
    handle: &ServeHandle<'_, 'e>,
    target: &Target<'_, 'e>,
    kind: Kind,
) -> Result<Ticket, RequestError> {
    let request = match target {
        Target::Pinned(session) => Request::new(Arc::clone(session)),
        Target::Cell(cell) => Request::from_cell(Arc::clone(cell)),
    };
    handle.submit(request.with_budget(kind.budget()))
}

/// Whether a reply has the shape its kind must have when `total` answers
/// exist: a drain is complete, a page holds the first [`PAGE_ANSWERS`] and
/// says it was cut there.
pub fn reply_shape_ok(kind: Kind, served: &Served, total: Option<usize>) -> bool {
    let n = served.answers().len();
    match kind {
        Kind::Drain => !served.is_partial() && total.is_none_or(|t| n == t),
        Kind::Page => match total {
            Some(t) if t <= PAGE_ANSWERS => !served.is_partial() && n == t,
            _ => n == PAGE_ANSWERS && served.truncation() == Some(Truncation::MaxAnswers),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_in_a_few_rounds_does_not_move_the_statistics() {
        let mut quiet = Samples::default();
        let mut noisy = Samples::default();
        for round in 0..9 {
            quiet.start_round();
            noisy.start_round();
            for i in 0..40 {
                let v = 10.0 + f64::from(i % 10);
                quiet.push(0, v);
                // Three rounds out of nine run at half speed.
                noisy.push(0, if round < 3 { 2.0 * v } else { v });
            }
        }
        assert_eq!(quiet.p50(), noisy.p50());
        assert_eq!(quiet.p90(), noisy.p90());
        assert_eq!(quiet.count(), 360);
    }

    #[test]
    fn a_round_is_reported_at_reference_speed() {
        let mut s = Samples::default();
        for speed in [0.5, 1.0, 2.0] {
            s.start_round();
            // The slower the machine (the smaller the factor), the longer
            // the same work took.
            (1..=20).for_each(|i| s.push(0, f64::from(i) / speed));
            s.close_round(speed);
        }
        assert!((s.p50() - 10.5).abs() < 1e-9);
        assert!((s.p90() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn classes_with_unlike_latencies_are_each_weighed_once() {
        let mut s = Samples::default();
        s.start_round();
        for i in 0..20 {
            s.push(0, 10.0 + f64::from(i) * 0.1);
            s.push(1, 30.0 + f64::from(i) * 0.3);
        }
        // Class medians 10.95 and 32.85: their mean, not the median of the
        // mix (which sits in the gap between the classes).
        assert!((s.p50() - 21.9).abs() < 1e-9);
        // Relative to its median each class has the same shape, so the tail
        // is that shape's p90 scaled back.
        let relative_p90 = 11.7 / 10.95;
        assert!((s.p90() - relative_p90 * 21.9).abs() < 1e-9);
    }

    #[test]
    fn a_gate_counts_operations_and_requirements_apart() {
        let mut gate = Gate::default();
        gate.op(true, || unreachable!());
        gate.op(false, || "bad op".into());
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        let mut other = Gate::default();
        other.require(false, || "bad run".into());
        assert_eq!(other.attempted, 0);
        assert!(!other.correct());
        gate.absorb(other);
        assert_eq!(gate.messages(), ["bad op", "bad run"]);
    }

    #[test]
    fn delay_percentiles_are_nearest_rank() {
        let mut gaps: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(delay_percentile(&mut gaps, 0.99), 990.0);
        assert_eq!(delay_percentile(&mut gaps, 1.0), 1000.0);
        assert!(delay_percentile(&mut [], 0.5).is_nan());
    }
}
