//! The load driver: one bounded `ucq-serve` pool, a [`LoadSpec`] mix of
//! well-behaved and misbehaving requests, and — between request batches —
//! delta ingestion and epoch re-freezing under the live traffic.
//!
//! Requests resolve their session through a shared [`EpochCell`]
//! ([`Request::from_cell`]). After each batch the driver ingests the next
//! delta into the session's build context (`insert_rows`), re-freezes the
//! next epoch ([`ucq_core::FrozenSession::refreeze`] — delta-proportional
//! work) and installs it into the cell *while the batch is still in
//! flight*. A fixed snapshot is the same run with no deltas
//! ([`Churn::NONE`]). The [`LoadReport`] proves the serving claims:
//!
//! * every submission lands in exactly one ledger entry, and nothing is
//!   shed because of a rotation (the pool never pauses);
//! * every drained request's answers — without repeats — equal a
//!   fresh-build oracle of some epoch at or after the one current when it
//!   was submitted (or, for a budget-truncated request, are part of one):
//!   in-flight requests finish on their old epoch, later ones see the new;
//! * with [`LoadSpec::fault_rotations`] (chaos suite, under
//!   `--cfg ucq_fault_inject`), a refreeze killed by an injected panic
//!   leaves the previous epoch installed and serving.
//!
//! The `ucq serve-bench` command, this crate's tests and the chaos suite
//! all drive this one entry point.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucq_core::{EvalError, UcqEngine};
use ucq_enumerate::Enumerator;
use ucq_serve::{serve, CancelToken, EpochCell, QueryBudget, Request, ServeConfig, ServeStats};
use ucq_storage::{faults, Instance, Relation, Tuple};

/// The shape of one [`drive`] run: pool size plus a deterministic every-Nth
/// mix of misbehaving requests — deadline'd, cancelled, answer-capped,
/// fault-armed — and whether the rotations themselves run with the fault
/// seam armed.
///
/// A stride of `0` disables that ingredient; stride `n` applies it to
/// every `n`-th submitted request (1-based), so different ingredients
/// overlap on common multiples — deliberately, since real overload is
/// never one failure mode at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadSpec {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Admission-queue bound; smaller queues shed earlier.
    pub queue_capacity: usize,
    /// Requests submitted per phase: once against the initial snapshot,
    /// then once after each delta — each batch still in flight when the
    /// next epoch installs. A run without deltas has the one phase.
    pub requests: usize,
    /// Every `n`-th request gets [`LoadSpec::deadline`] as a wall-clock
    /// budget.
    pub deadline_every: usize,
    /// The deadline applied to deadline'd requests.
    pub deadline: Duration,
    /// Every `n`-th request carries a cancel token fired *before*
    /// submission — the request truncates at its first block boundary.
    pub cancel_every: usize,
    /// Answer cap applied to every request (`None` = uncapped).
    pub answer_cap: Option<usize>,
    /// Every `n`-th request arms the `ucq_fault_inject` seam for its
    /// storage operations (a no-op unless the cfg is active).
    pub fault_every: usize,
    /// Arm the `ucq_fault_inject` seam around each refreeze (a no-op
    /// without the cfg): injected panics abort the rotation, which must
    /// leave the previous epoch installed.
    pub fault_rotations: bool,
}

impl LoadSpec {
    /// A well-behaved baseline: no deadlines, cancels, caps, or faults.
    pub fn steady(workers: usize, queue_capacity: usize, requests: usize) -> LoadSpec {
        LoadSpec {
            workers,
            queue_capacity,
            requests,
            deadline_every: 0,
            deadline: Duration::ZERO,
            cancel_every: 0,
            answer_cap: None,
            fault_every: 0,
            fault_rotations: false,
        }
    }

    /// Deadlines every `n`-th request at `deadline`.
    pub fn with_deadline_every(mut self, n: usize, deadline: Duration) -> LoadSpec {
        self.deadline_every = n;
        self.deadline = deadline;
        self
    }

    /// Pre-cancels every `n`-th request.
    pub fn with_cancel_every(mut self, n: usize) -> LoadSpec {
        self.cancel_every = n;
        self
    }

    /// Caps every request at `cap` answers.
    pub fn with_answer_cap(mut self, cap: usize) -> LoadSpec {
        self.answer_cap = Some(cap);
        self
    }

    /// Arms fault injection on every `n`-th request.
    pub fn with_faults_every(mut self, n: usize) -> LoadSpec {
        self.fault_every = n;
        self
    }

    /// Arms the fault seam around every refreeze.
    pub fn with_faulted_rotations(mut self) -> LoadSpec {
        self.fault_rotations = true;
        self
    }

    /// The canned chaos mix the `ucq serve-bench --chaos` command and the
    /// chaos suite use: overlapping deadlines (every 5th, 1ms), pre-fired
    /// cancels (every 7th), and fault-armed requests (every 3rd) through
    /// a deliberately tight queue.
    pub fn chaos(workers: usize, requests: usize) -> LoadSpec {
        LoadSpec::steady(workers, workers.max(2), requests)
            .with_deadline_every(5, Duration::from_millis(1))
            .with_cancel_every(7)
            .with_faults_every(3)
    }

    /// Dresses the `index`-th submission (1-based) in this spec's mix.
    fn dress<'e>(&self, index: usize, mut request: Request<'e>) -> Request<'e> {
        let every = |stride: usize| stride > 0 && index.is_multiple_of(stride);
        let mut budget = QueryBudget::unlimited();
        if let Some(cap) = self.answer_cap {
            budget = budget.with_max_answers(cap);
        }
        if every(self.deadline_every) {
            budget = budget.with_timeout(self.deadline);
        }
        request = request.with_budget(budget);
        if every(self.cancel_every) {
            let token = CancelToken::new();
            token.cancel();
            request = request.with_cancel(token);
        }
        if every(self.fault_every) {
            request = request.with_fault_injection();
        }
        request
    }
}

/// The write side of a run: deltas rotated, one per phase, into one
/// relation of the instance.
#[derive(Clone, Copy, Debug)]
pub struct Churn<'a> {
    /// The relation the deltas are inserted into.
    pub rel: &'a str,
    /// One delta per rotation.
    pub deltas: &'a [Relation],
}

impl Churn<'static> {
    /// No writes: one phase of requests against a fixed snapshot.
    pub const NONE: Churn<'static> = Churn {
        rel: "",
        deltas: &[],
    };
}

/// A fresh-build oracle: one-shot enumeration with a private context.
fn oracle(engine: &UcqEngine, instance: &Instance) -> Result<HashSet<Tuple>, EvalError> {
    Ok(engine
        .enumerate(instance)?
        .collect_all()
        .into_iter()
        .collect())
}

/// Serves `spec.requests` requests per phase through a bounded pool while
/// rotating `churn.deltas` into `churn.rel` one at a time: ingest via
/// `insert_rows` on the live session's build context, build the next epoch
/// with `refreeze`, install it into the shared [`EpochCell`] — all without
/// pausing the pool. Every drained request is checked against the
/// fresh-build oracles of the epochs it could legitimately have served.
pub fn drive(
    engine: &UcqEngine,
    instance: &Instance,
    churn: Churn<'_>,
    spec: &LoadSpec,
) -> Result<LoadReport, EvalError> {
    let config = ServeConfig::new(spec.workers, spec.queue_capacity)
        .expect("a load spec needs positive workers and queue capacity");
    let mut expected = vec![oracle(engine, instance)?];
    let cell = Arc::new(EpochCell::from_arc(Arc::new(
        engine.session(instance).freeze()?,
    )));
    let mut current = instance.clone();
    let mut report = LoadReport {
        workers: spec.workers,
        rotations_attempted: churn.deltas.len(),
        ..LoadReport::default()
    };
    let t0 = Instant::now();
    let (resolved, stats) = serve(config, |handle| -> Result<_, EvalError> {
        let mut tickets = Vec::with_capacity((churn.deltas.len() + 1) * spec.requests);
        let mut index = 0usize;
        for phase in 0..=churn.deltas.len() {
            for _ in 0..spec.requests {
                let at_epoch = cell.epoch();
                let submitted_at = Instant::now();
                index += 1;
                let request = spec.dress(index, Request::from_cell(Arc::clone(&cell)));
                // Shed submissions are already accounted by the runtime.
                if let Ok(ticket) = handle.submit(request) {
                    tickets.push((at_epoch, submitted_at, ticket));
                }
            }
            let Some(delta) = churn.deltas.get(phase) else {
                break;
            };
            // Rotate while this phase's requests are still in flight: O(Δ)
            // ingest into the shared build context, delta-only refreeze,
            // epoch install. The pool never stops admitting.
            let session = cell.load();
            let base = current
                .get_shared(churn.rel)
                .expect("churn relation exists in the instance");
            let next_rel = session.build_context().insert_rows(&base, delta);
            let next_instance = current.with_relation_shared(churn.rel, next_rel);
            let refrozen = if spec.fault_rotations {
                catch_unwind(AssertUnwindSafe(|| {
                    faults::armed(|| session.refreeze(&next_instance))
                }))
            } else {
                Ok(session.refreeze(&next_instance))
            };
            // An injected panic killed the rotation mid-refreeze: the cell
            // still holds the previous epoch and serving continues on it.
            if let Ok(next) = refrozen {
                cell.install(Arc::new(next?));
                expected.push(oracle(engine, &next_instance)?);
                current = next_instance;
                report.rotations_installed += 1;
            }
        }
        Ok(tickets
            .into_iter()
            .filter_map(|(at_epoch, submitted_at, ticket)| {
                let served = ticket.wait().ok()?;
                Some((at_epoch, submitted_at.elapsed().as_nanos() as u64, served))
            })
            .collect::<Vec<_>>())
    });
    report.elapsed = t0.elapsed();
    report.serve = stats;
    report.final_epoch = cell.epoch();
    for (at_epoch, latency_ns, served) in resolved? {
        let answers = served.answers();
        report.drains += 1;
        report.total_answers += answers.len();
        if !answers.is_empty() {
            report.resolution_ns.push(latency_ns);
        }
        let got: HashSet<&Tuple> = answers.iter().collect();
        let fits = |want: &HashSet<Tuple>| {
            got.len() == answers.len()
                && got.iter().all(|t| want.contains(*t))
                && (served.is_partial() || got.len() == want.len())
        };
        match expected[at_epoch as usize..].iter().position(fits) {
            Some(0) => report.pinned_to_submit_epoch += 1,
            Some(_) => report.upgraded_epoch += 1,
            None => report.mismatched += 1,
        }
    }
    report.resolution_ns.sort_unstable();
    Ok(report)
}

/// What one [`drive`] run measured and proved: throughput and latency, the
/// pool's own outcome ledger, and every drained request classified against
/// fresh-build oracles of the epochs it could have served.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Wall-clock time from the pool's start to its last reply.
    pub elapsed: Duration,
    /// Requests that resolved to answers, complete or partial.
    pub drains: usize,
    /// Answers across all drains.
    pub total_answers: usize,
    /// Submit-to-resolution latency of every drain that produced at least
    /// one answer, sorted ascending (shed, cancelled-empty and failed
    /// requests show in the ledger instead).
    pub resolution_ns: Vec<u64>,
    /// The runtime's exactly-once outcome ledger.
    pub serve: ServeStats,
    /// Deltas the driver tried to rotate in.
    pub rotations_attempted: usize,
    /// Rotations that installed a new epoch (all of them, unless a faulted
    /// refreeze was aborted by an injected panic).
    pub rotations_installed: usize,
    /// The cell's epoch after the run (equals `rotations_installed`).
    pub final_epoch: u64,
    /// Drains that served exactly the epoch current at their submission:
    /// the answers, without a repeat, equal its fresh-build oracle — or, for
    /// a request its budget cut short, are part of it. When the final epoch
    /// is newer, these finished on an old epoch while rotation proceeded.
    pub pinned_to_submit_epoch: usize,
    /// Drains that served, in the same sense, a newer epoch than the one at
    /// submission (dequeued after an install).
    pub upgraded_epoch: usize,
    /// Drains matching no admissible oracle — always zero unless serving
    /// or rotation broke snapshot isolation.
    pub mismatched: usize,
}

impl LoadReport {
    /// Aggregate throughput over the whole run.
    pub fn answers_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_answers as f64 / secs
    }

    /// The p99 submit-to-resolution latency (nearest-rank), in
    /// nanoseconds; `0` if no drain produced an answer.
    pub fn p99_resolution_ns(&self) -> u64 {
        percentile(&self.resolution_ns, 99)
    }

    /// The median submit-to-resolution latency, in nanoseconds.
    pub fn median_resolution_ns(&self) -> u64 {
        percentile(&self.resolution_ns, 50)
    }

    /// Drains that matched the oracle of an admissible epoch: the one
    /// current at submission, or a later one.
    pub fn matched(&self) -> usize {
        self.pinned_to_submit_epoch + self.upgraded_epoch
    }

    /// Whether every drain was oracle-identical to some admissible epoch.
    pub fn oracle_identical(&self) -> bool {
        self.mismatched == 0
    }
}

/// Nearest-rank percentile over a sorted ascending slice.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_ucq;

    /// `Q(x, y) <- R(x, y)` over `rows`.
    fn copy_of(rows: impl IntoIterator<Item = (i64, i64)>) -> (UcqEngine, Instance) {
        let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
        let instance = [("R", Relation::from_pairs(rows))].into_iter().collect();
        (engine, instance)
    }

    fn run(rows: impl IntoIterator<Item = (i64, i64)>, spec: &LoadSpec) -> LoadReport {
        let (engine, instance) = copy_of(rows);
        drive(&engine, &instance, Churn::NONE, spec).unwrap()
    }

    #[test]
    fn drive_reports_totals() {
        let report = run([(1, 2), (3, 4), (5, 6)], &LoadSpec::steady(2, 8, 6));
        assert_eq!(report.workers, 2);
        assert_eq!(report.drains, 6);
        assert_eq!(report.total_answers, 6 * 3);
        assert_eq!(report.resolution_ns.len(), 6);
        assert!(report.answers_per_sec() > 0.0);
        assert!(report.p99_resolution_ns() >= report.median_resolution_ns());
    }

    #[test]
    fn fixed_work_splits_evenly() {
        // The same eight requests, whatever the number of workers.
        for workers in [1, 4] {
            let report = run([(7, 8)], &LoadSpec::steady(workers, 8, 8));
            assert_eq!(report.drains, 8);
            assert_eq!(report.total_answers, 8);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[5], 99), 5);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 99), 99);
        assert_eq!(percentile(&xs, 50), 50);
    }

    #[test]
    fn percentile_extremes_clamp_to_the_data() {
        let xs: Vec<u64> = (1..=100).collect();
        // pct=0 would compute rank 0; nearest-rank clamps to the minimum.
        assert_eq!(percentile(&xs, 0), 1);
        assert_eq!(percentile(&xs, 100), 100);
        // Odd sizes: rank = ceil(len * pct / 100), still in bounds.
        let odd: Vec<u64> = vec![10, 20, 30];
        assert_eq!(percentile(&odd, 0), 10);
        assert_eq!(percentile(&odd, 50), 20);
        assert_eq!(percentile(&odd, 99), 30);
        assert_eq!(percentile(&odd, 100), 30);
        // Singleton: every percentile is the one sample.
        assert_eq!(percentile(&[7], 0), 7);
        assert_eq!(percentile(&[7], 100), 7);
    }

    #[test]
    fn empty_report_rates_are_zero_not_nan() {
        let report = LoadReport::default();
        // Zero elapsed must not divide: the rate is defined as 0, not NaN.
        assert_eq!(report.answers_per_sec(), 0.0);
        // No drain produced an answer: the latency percentiles are 0.
        assert_eq!(report.p99_resolution_ns(), 0);
        assert_eq!(report.median_resolution_ns(), 0);
    }

    #[test]
    fn all_empty_drains_report_no_delays() {
        // An empty relation: every drain completes with zero answers.
        let report = run([], &LoadSpec::steady(2, 8, 4));
        assert_eq!(report.drains, 4);
        assert_eq!(report.total_answers, 0);
        assert!(
            report.resolution_ns.is_empty(),
            "empty drains must not record a latency"
        );
        assert_eq!(report.p99_resolution_ns(), 0);
        assert_eq!(report.serve.submitted, report.drains);
        let ledger = report.serve;
        assert_eq!(ledger.shed + ledger.panicked + ledger.drained, 0);
    }

    fn chain(rows: i64) -> (UcqEngine, Instance) {
        copy_of((0..rows).map(|i| (i, i + 1)))
    }

    #[test]
    fn steady_spec_completes_everything() {
        let (engine, instance) = chain(20);
        let spec = LoadSpec::steady(2, 8, 6);
        let report = drive(&engine, &instance, Churn::NONE, &spec).unwrap();
        assert_eq!(report.serve.submitted, 6);
        assert_eq!(report.drains, 6);
        assert_eq!(report.total_answers, 6 * 20);
        let ledger = report.serve;
        assert_eq!(
            ledger.shed + ledger.partial + ledger.panicked + ledger.drained,
            0
        );
        assert_eq!(report.resolution_ns.len(), 6);
        assert!(report.oracle_identical(), "{report:?}");
        assert_eq!((report.rotations_attempted, report.final_epoch), (0, 0));
    }

    #[test]
    fn cancel_stride_produces_partials() {
        let (engine, instance) = chain(50);
        // Every 2nd of 6 requests pre-cancelled: exactly 3 partials.
        let spec = LoadSpec::steady(2, 8, 6).with_cancel_every(2);
        let report = drive(&engine, &instance, Churn::NONE, &spec).unwrap();
        assert_eq!(report.serve.submitted, 6);
        assert_eq!(report.serve.partial, 3);
        assert_eq!(report.serve.timed_out, 0, "cancellation is not a timeout");
        assert_eq!(
            report.total_answers,
            3 * 50,
            "uncancelled requests complete"
        );
    }

    #[test]
    fn answer_cap_bounds_every_request() {
        let (engine, instance) = chain(100);
        let spec = LoadSpec::steady(2, 8, 4).with_answer_cap(5);
        let report = drive(&engine, &instance, Churn::NONE, &spec).unwrap();
        assert_eq!(report.serve.partial, 4, "all requests hit the cap");
        assert_eq!(report.total_answers, 4 * 5);
        assert_eq!(report.matched(), 4, "a page is part of its epoch's answers");
    }

    #[test]
    fn chaos_mix_strides_are_nontrivial() {
        let spec = LoadSpec::chaos(4, 100);
        assert!(spec.deadline_every > 0);
        assert!(spec.cancel_every > 0);
        assert!(spec.fault_every > 0);
        assert!(spec.queue_capacity >= 2);
        assert!(!spec.fault_rotations);
    }

    fn deltas(n: usize, start: i64) -> Vec<Relation> {
        (0..n as i64)
            .map(|d| Relation::from_pairs([(start + 2 * d, start + 2 * d + 1)]))
            .collect()
    }

    #[test]
    fn algorithm1_rotation_is_oracle_identical_with_zero_shed() {
        let engine = UcqEngine::new(parse_ucq("Q1(x, y) <- R(x, y)\nQ2(a, b) <- S(a, b)").unwrap());
        let instance: Instance = [
            ("R", Relation::from_pairs((0..20).map(|i| (i, i + 1)))),
            ("S", Relation::from_pairs([(100, 101)])),
        ]
        .into_iter()
        .collect();
        let spec = LoadSpec::steady(2, 64, 8);
        let churn = Churn {
            rel: "R",
            deltas: &deltas(3, 1000),
        };
        let report = drive(&engine, &instance, churn, &spec).unwrap();
        assert_eq!(report.rotations_installed, 3);
        assert_eq!(report.final_epoch, 3);
        assert!(report.oracle_identical(), "{report:?}");
        assert_eq!(report.serve.shed, 0, "rotation never sheds");
        assert_eq!(report.drains, 4 * 8, "every request drained");
        assert_eq!(report.matched(), 4 * 8);
    }

    #[test]
    fn union_extension_rotation_is_oracle_identical() {
        let engine = UcqEngine::new(
            parse_ucq(
                "Q1(x, y, w) <- R1(x, z), R2(z, y), R3(y, w)\n\
                 Q2(x, y, w) <- R1(x, y), R2(y, w)",
            )
            .unwrap(),
        );
        let instance: Instance = [
            ("R1", Relation::from_pairs([(1, 2), (1, 5), (9, 7)])),
            ("R2", Relation::from_pairs([(2, 3), (5, 3), (7, 0)])),
            ("R3", Relation::from_pairs([(3, 4), (3, 6), (0, 2)])),
        ]
        .into_iter()
        .collect();
        let spec = LoadSpec::steady(2, 32, 4);
        let ds = vec![
            Relation::from_pairs([(8, 2)]),
            Relation::from_pairs([(8, 5), (6, 7)]),
        ];
        let churn = Churn {
            rel: "R1",
            deltas: &ds,
        };
        let report = drive(&engine, &instance, churn, &spec).unwrap();
        assert_eq!(report.rotations_installed, 2);
        assert!(report.oracle_identical(), "{report:?}");
        assert_eq!(report.serve.shed, 0);
        assert!(report.total_answers > 0);
    }

    #[test]
    fn rotation_accounting_balances() {
        let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
        let instance: Instance = [("R", Relation::from_pairs([(1, 2), (3, 4)]))]
            .into_iter()
            .collect();
        let spec = LoadSpec::steady(1, 16, 3);
        let churn = Churn {
            rel: "R",
            deltas: &deltas(2, 50),
        };
        let report = drive(&engine, &instance, churn, &spec).unwrap();
        assert_eq!(report.serve.submitted, 3 * 3);
        assert!(report.serve.is_balanced(), "{report:?}");
        assert_eq!(
            report.matched() + report.mismatched,
            report.drains,
            "every drained request classified"
        );
        assert_eq!(
            report.pinned_to_submit_epoch + report.upgraded_epoch,
            report.matched()
        );
    }
}
