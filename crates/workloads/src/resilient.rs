//! The shape of one load run ([`crate::drive`]): pool size plus a
//! deterministic every-Nth mix of misbehaving requests — deadline'd,
//! cancelled, answer-capped, fault-armed — and whether the rotations
//! themselves run with the fault seam armed.

use std::time::Duration;
use ucq_serve::{CancelToken, QueryBudget, Request};

/// What [`crate::drive`] submits, and through how large a pool.
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
    pub(crate) fn dress<'e>(&self, index: usize, mut request: Request<'e>) -> Request<'e> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drive, Churn};
    use ucq_core::UcqEngine;
    use ucq_query::parse_ucq;
    use ucq_storage::{Instance, Relation};

    fn chain(rows: i64) -> (UcqEngine, Instance) {
        let u = parse_ucq("Q(x, y) <- R(x, y)").unwrap();
        let engine = UcqEngine::new(u);
        let pairs: Vec<(i64, i64)> = (0..rows).map(|i| (i, i + 1)).collect();
        let instance: Instance = [("R", Relation::from_pairs(pairs))].into_iter().collect();
        (engine, instance)
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
}
