//! Wall-clock delay instrumentation.
//!
//! `DelayClin` is a RAM-model class; on real hardware we *measure* the delay
//! between consecutive answers and report distribution statistics. A query
//! is "constant delay" operationally when its per-answer delay statistics
//! stay flat as the instance grows — what the benchmark's `delay_ns_*`
//! metrics and `examples/delay_profile.rs` report.

use crate::enumerator::Enumerator;
use std::time::{Duration, Instant};
use ucq_storage::Tuple;

/// Per-run delay measurements.
#[derive(Clone, Debug, Default)]
pub struct DelayProfile {
    /// Time spent before the enumerator was handed over (preprocessing).
    pub preprocessing: Duration,
    /// Gaps between consecutive `next()` returns (first gap = time to the
    /// first answer).
    pub delays_ns: Vec<u64>,
    /// Total wall-clock time of the enumeration phase.
    pub total: Duration,
}

impl DelayProfile {
    /// Number of answers produced.
    pub fn count(&self) -> usize {
        self.delays_ns.len()
    }

    /// Maximum observed delay.
    pub fn max_ns(&self) -> u64 {
        self.delays_ns.iter().copied().max().unwrap_or(0)
    }

    /// The `q`-quantile (0.0–1.0) of the delay distribution.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.delays_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.delays_ns.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Median delay.
    pub fn median_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// 99th-percentile delay.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "prep={:?} answers={} median={}ns p99={}ns max={}ns total={:?}",
            self.preprocessing,
            self.count(),
            self.median_ns(),
            self.p99_ns(),
            self.max_ns(),
            self.total
        )
    }
}

/// Runs `build` (timed as preprocessing), then drains the enumerator it
/// returns, timing every answer gap. Returns the answers and the profile.
pub fn measure<E, F>(build: F) -> (Vec<Tuple>, DelayProfile)
where
    E: Enumerator,
    F: FnOnce() -> E,
{
    let t0 = Instant::now();
    let mut e = build();
    let preprocessing = t0.elapsed();

    let mut delays_ns = Vec::new();
    let start = Instant::now();
    let mut last = start;
    let mut answers = Vec::new();
    while let Some(t) = e.next() {
        let now = Instant::now();
        delays_ns.push(now.duration_since(last).as_nanos() as u64);
        last = now;
        answers.push(t);
    }
    let total = start.elapsed();
    (
        answers,
        DelayProfile {
            preprocessing,
            delays_ns,
            total,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerator::VecEnumerator;

    fn t(x: i64) -> Tuple {
        Tuple::from(&[x][..])
    }

    #[test]
    fn measure_counts_answers() {
        let (answers, prof) = measure(|| VecEnumerator::new(vec![t(1), t(2), t(3)]));
        assert_eq!(answers.len(), 3);
        assert_eq!(prof.count(), 3);
        assert!(prof.max_ns() >= prof.median_ns());
    }

    #[test]
    fn empty_profile_statistics() {
        let p = DelayProfile::default();
        assert_eq!(p.count(), 0);
        assert_eq!(p.max_ns(), 0);
        assert_eq!(p.median_ns(), 0);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let p = DelayProfile {
            preprocessing: Duration::ZERO,
            delays_ns: vec![5, 1, 9, 3, 7],
            total: Duration::ZERO,
        };
        assert_eq!(p.quantile_ns(0.0), 1);
        assert_eq!(p.median_ns(), 5);
        assert_eq!(p.quantile_ns(1.0), 9);
        assert_eq!(p.p99_ns(), 9);
    }

    #[test]
    fn summary_mentions_count() {
        let (_, prof) = measure(|| VecEnumerator::new(vec![t(1)]));
        assert!(prof.summary().contains("answers=1"));
    }
}
