//! What one load run ([`crate::drive`]) measured and proved: throughput and
//! latency, the pool's own outcome ledger, and every drained request
//! classified against fresh-build oracles of the epochs it could have
//! served.

use std::time::Duration;
use ucq_serve::ServeStats;

/// The report of one [`crate::drive`] run.
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
    use crate::{drive, Churn, LoadSpec};
    use ucq_core::UcqEngine;
    use ucq_query::parse_ucq;
    use ucq_storage::{Instance, Relation};

    fn run(rows: impl IntoIterator<Item = (i64, i64)>, spec: &LoadSpec) -> LoadReport {
        let engine = UcqEngine::new(parse_ucq("Q(x, y) <- R(x, y)").unwrap());
        let instance: Instance = [("R", Relation::from_pairs(rows))].into_iter().collect();
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
}
